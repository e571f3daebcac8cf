// Package dpcls implements the datapath classifier: the megaflow cache that
// backs the EMC in the OVS userspace datapath.
//
// Megaflows are wildcarded flow entries produced by slow-path translation.
// The classifier is a tuple-space search: one hash subtable per distinct
// mask, probed in descending hit-count order (as OVS sorts subtables by
// usage). Megaflows installed by ofproto translation are disjoint by
// construction, so the first match wins and no priorities are needed.
//
// Megaflows live by value in their subtable, as pointer-free records: a
// 32-byte header and only the key words the subtable's mask covers (OVS's
// miniflow). They are named by generation-tagged refs, resolved through the
// classifier's directory, so the collector never scans them and a record is
// recycled the moment its megaflow is removed: a ref still held by a cache
// fails the generation compare instead of resurrecting with another flow's
// actions. A subtable is a flat open-addressed table of 8-byte slots (the
// cmap analog) naming record positions, probed with a hash of only the
// words its mask covers; see table.go.
//
// The paper's Section 2.2.2 explains why this structure could not move into
// eBPF ("the sandbox restrictions ... preclude implementing the OVS megaflow
// cache"), which is one of the reasons the AF_XDP userspace architecture
// won.
package dpcls

import (
	"cmp"
	"fmt"
	"slices"

	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
)

// Entry is the header of one installed megaflow, a 32-byte record at its
// position in its subtable with no pointer in it; the masked key words sit
// at the same position in the subtable's key arena (Classifier.MaskedKey).
// An *Entry is good for the pass that resolved it, not across an install
// (see growRows); anything kept longer holds a Ref.
type Entry struct {
	// Hits counts packets matched, for revalidator heuristics. With
	// hardware offload enabled, the periodic counter readback merges
	// hardware matches in here too, so offloaded flows keep looking alive
	// to the revalidator.
	Hits uint64

	// self is the Ref naming the megaflow: its directory index and the
	// generation its directory entry holds, so a probe names what it found
	// without reading the directory.
	self Ref
	// actions indexes the classifier's action table (actions.go); while
	// the position is free it links the subtable's free list instead.
	actions uint32
	// sub indexes the owning subtable in Classifier.byIdx, pos the
	// record's position in it.
	sub, pos uint32

	// OffloadMark is the hardware-offload engine's per-flow flag: nonzero
	// while the engine classes this megaflow an elephant whose exact keys
	// should be pushed to the NIC. The classifier itself never reads it;
	// it lives here so the per-packet elephant check is one field load
	// instead of a map probe.
	OffloadMark uint8
}

// Ref names one installed megaflow: its directory index in the low 32 bits
// and the entry's generation at install in the high 32. A ref goes stale
// when its megaflow is removed and never names another one, even after the
// directory entry and the record's position are recycled. The zero Ref
// names nothing.
type Ref uint64

// Ref returns the ref naming e, read from its header: no directory lookup.
func (e *Entry) Ref() Ref { return e.self }

// dirEntry is where the megaflow a ref index names lives, and the
// generation of the ref naming it; while free, pos links the free list.
type dirEntry struct{ gen, sub, pos uint32 }

// The directory and each subtable's records grow by chunks of chunkSize,
// which never move; the first starts at firstChunk and doubles (growRows).
const chunkBits, chunkSize, firstChunk = 10, 1 << chunkBits, 16

// entry returns the directory entry at index i.
func (c *Classifier) entry(i uint32) *dirEntry { return &c.dir[i>>chunkBits][i&(chunkSize-1)] }

// Get returns the live megaflow r names, or nil if r is stale or zero: one
// generation compare in r's directory entry.
func (c *Classifier) Get(r Ref) *Entry {
	if i := uint32(r); i < c.refs {
		if d := c.entry(i); d.gen == uint32(r>>32) && d.gen != 0 {
			return c.byIdx[d.sub].hdr(d.pos)
		}
	}
	return nil
}

// Live reports whether r still names an installed megaflow: the caches'
// liveness check.
func (c *Classifier) Live(r Ref) bool { return c.Get(r) != nil }

// Actions returns the action list e executes, shared with every megaflow
// installed from the same list: never write into it.
func (c *Classifier) Actions(e *Entry) []ofproto.DPAction { return c.acts.lists[e.actions].list }

// Mask returns the fields e constrains: its subtable's mask.
func (c *Classifier) Mask(e *Entry) flow.Mask { return c.byIdx[e.sub].mask }

// Matches reports whether key falls under e: key masked by e's mask equals
// its masked key, compared in place without building the masked copy. It is
// the verification the signature cache owes every candidate.
func (c *Classifier) Matches(e *Entry, key *flow.Key) bool { return c.byIdx[e.sub].matches(e.pos, key) }

// MaskedKey returns the key e matches, already masked (key.Apply(mask)):
// its stored words expanded back into a full key.
func (c *Classifier) MaskedKey(e *Entry) flow.Key {
	var k flow.Key
	st := c.byIdx[e.sub]
	for j, v := range st.row(e.pos) {
		k[st.words[j].idx] = v
	}
	return k
}

// String prints e as a flow: its match in the flow text of
// flow.MatchFields, then hits and actions.
func (c *Classifier) String(e *Entry) string {
	return fmt.Sprintf("megaflow{%s hits=%d actions=%v}", flow.SpecOf(c.MaskedKey(e), c.Mask(e)), e.Hits, c.Actions(e))
}

// Handle names a megaflow by its classifier and ref: what outlives a packet
// pass (flow dumps, the install hook, hardware-rule cookies).
// It is comparable, and stale once the megaflow is removed.
type Handle struct {
	Table *Classifier
	Ref   Ref
}

// Entry returns the live megaflow h names, or nil once it is removed.
func (h Handle) Entry() *Entry { return h.Table.Get(h.Ref) }

// Classifier is the tuple-space-search megaflow table. It is used from a
// single PMD thread (each PMD owns one, as in OVS) so it needs no locking.
type Classifier struct {
	// subtables stays a slice because Lookup probes it in descending
	// hit-count order; byMask indexes the same subtables so Insert resolves
	// a mask in O(1) instead of scanning, and byIdx is where a record's sub
	// points (nil where a dropped subtable was, reused by the next mask).
	subtables []*subtable
	byMask    map[flow.Mask]*subtable
	byIdx     []*subtable
	// basis seeds every subtable's slot hash, so per-PMD classifiers and
	// the kernel flow table place the same megaflows differently.
	basis uint32
	count int

	// dir is the ref directory; refs counts the indices handed out so far,
	// index 0 included (it never is: ref 0 and link 0 mean none), and free
	// heads the list of released indices, linked through pos.
	dir  [][]dirEntry
	refs uint32
	free uint32
	acts actionTable

	// Lookups and SubtableProbes feed the cost model: a lookup costs
	// per-subtable-probed.
	Lookups        uint64
	SubtableProbes uint64
	// resort counts down to the next usage-based reordering.
	resort int

	// OnInsert, when set, is called for every freshly installed megaflow
	// — not for in-place replacements, whose ref the caller already holds.
	// It is the flow-installed notification the incremental (wheel-based)
	// revalidator registers expiry timers from.
	OnInsert func(Handle)

	// lookup is the handle the by-value Lookup returns.
	lookup Handle
}

// New returns an empty classifier whose slot hashes are seeded with
// hashBasis.
func New(hashBasis uint32) *Classifier {
	c := &Classifier{
		byMask: make(map[flow.Mask]*subtable),
		basis:  hashBasis,
		resort: resortInterval,
		acts:   newActionTable(),
	}
	c.lookup.Table = c
	return c
}

// resortInterval is how many lookups happen between subtable reorderings.
const resortInterval = 1024

// Lookup is LookupKey for callers holding the key by value, returning a
// handle on a hit. The handle is the classifier's own, overwritten by the
// next Lookup: use it at once or copy it.
func (c *Classifier) Lookup(key flow.Key) (h *Handle, probes int) {
	var e *Entry
	if e, probes = c.LookupKey(&key); e != nil {
		c.lookup.Ref, h = e.self, &c.lookup
	}
	return h, probes
}

// LookupKey finds the megaflow matching key, counting the hit on it. It
// returns the megaflow and the number of subtables probed (for cost
// accounting), or nil and the full probe count on a miss.
func (c *Classifier) LookupKey(key *flow.Key) (*Entry, int) {
	c.Lookups++
	probes := 0
	for _, st := range c.subtables {
		probes++
		c.SubtableProbes++
		if e := st.find(key, st.hash(key)); e != nil {
			e.Hits++
			st.hits++
			c.maybeResort()
			return e, probes
		}
	}
	c.maybeResort()
	return nil, probes
}

func (c *Classifier) maybeResort() {
	c.resort--
	if c.resort > 0 {
		return
	}
	c.resort = resortInterval
	// The comparison captures nothing, so the stable sort allocates nothing.
	slices.SortStableFunc(c.subtables, func(a, b *subtable) int {
		return cmp.Compare(b.hits, a.hits)
	})
	for _, st := range c.subtables {
		st.hits = 0
	}
}

// Insert is InsertKey for callers holding the key and mask by value.
func (c *Classifier) Insert(key flow.Key, mask flow.Mask, actions []ofproto.DPAction) Ref {
	return c.InsertKey(&key, &mask, actions)
}

// InsertKey installs a megaflow for key under mask with the given actions
// and returns its ref. Inserting a key that matches an existing megaflow of
// the same mask replaces its actions in place: the megaflow keeps its ref
// and hit count, so cached hits execute the new actions immediately instead
// of forwarding with the stale ones a fresh megaflow would leave behind.
func (c *Classifier) InsertKey(key *flow.Key, mask *flow.Mask, actions []ofproto.DPAction) Ref {
	st := c.byMask[*mask]
	if st == nil {
		st = c.newSubtable(mask)
	}
	h := st.hash(key)
	if e := st.find(key, h); e != nil {
		old := e.actions
		e.actions = c.acts.intern(actions)
		c.acts.release(old)
		return e.Ref()
	}
	c.count++
	i, d := c.alloc()
	p := st.alloc()
	d.sub, d.pos = st.idx, p
	e := st.hdr(p)
	*e = Entry{self: Ref(d.gen)<<32 | Ref(i), actions: c.acts.intern(actions), sub: st.idx, pos: p}
	row := st.row(p)
	for j, w := range st.words {
		row[j] = key[w.idx] & w.bits
	}
	st.insert(h, p)
	r := e.Ref()
	if c.OnInsert != nil {
		c.OnInsert(Handle{c, r})
	}
	return r
}

// Remove deletes the megaflow r names. It reports whether one was removed:
// a stale ref (already removed, even if its masked key has since been
// installed again, in the same record or another) removes nothing.
func (c *Classifier) Remove(r Ref) bool {
	e := c.Get(r)
	if e == nil {
		return false
	}
	st := c.byIdx[e.sub]
	st.remove(st.hashRow(st.row(e.pos)), e.pos)
	c.release(st, e.pos)
	c.count--
	if st.n == 0 {
		c.dropSubtable(st)
	}
	return true
}

// Flush removes every megaflow (every ref goes stale) and resets the lookup
// statistics and the resort countdown, so a reused classifier starts from
// the same state a fresh one would — probes per lookup and the cost model
// are not skewed by a previous table's history.
func (c *Classifier) Flush() {
	for _, r := range c.Refs(nil) {
		d := c.entry(uint32(r))
		c.release(c.byIdx[d.sub], d.pos)
	}
	c.subtables, c.byIdx = nil, nil
	c.byMask = make(map[flow.Mask]*subtable)
	c.count = 0
	c.Lookups = 0
	c.SubtableProbes = 0
	c.resort = resortInterval
}

// Len returns the number of installed megaflows.
func (c *Classifier) Len() int { return c.count }

// Refs appends the refs of all installed megaflows to buf (truncated first)
// and returns it — the allocation-free dump the revalidator and the offload
// engine reuse their buffers across sweeps with. Order is unspecified.
func (c *Classifier) Refs(buf []Ref) []Ref {
	buf = buf[:0]
	for _, st := range c.subtables {
		for _, s := range st.slots {
			if s.pos != 0 {
				buf = append(buf, st.hdr(s.pos).Ref())
			}
		}
	}
	return buf
}

// alloc takes a directory index off the free list, or the next one never
// handed out. A fresh index starts at generation 1, so no live ref has
// generation 0.
func (c *Classifier) alloc() (uint32, *dirEntry) {
	if i := c.free; i != 0 {
		d := c.entry(i)
		c.free = d.pos
		return i, d
	}
	i := max(c.refs, 1)
	if i == ^uint32(0) {
		panic("dpcls: 2^32 megaflow refs")
	}
	c.dir = growRows(c.dir, i, 1)
	c.refs = i + 1
	d := c.entry(i)
	d.gen = 1
	return i, d
}

// release frees the record at position p of st: its action list, its
// directory index, which goes on the classifier's free list under its next
// generation, and its position, which goes on the subtable's.
func (c *Classifier) release(st *subtable, p uint32) {
	e := st.hdr(p)
	c.acts.release(e.actions)
	d := c.entry(uint32(e.self))
	c.free, *d = uint32(e.self), dirEntry{gen: max(d.gen+1, 1), pos: c.free}
	st.free, *e = p, Entry{actions: st.free}
}

// newSubtable adds an empty subtable for mask, in the first free byIdx slot.
func (c *Classifier) newSubtable(mask *flow.Mask) *subtable {
	idx := slices.Index(c.byIdx, nil)
	if idx < 0 {
		idx, c.byIdx = len(c.byIdx), append(c.byIdx, nil)
	}
	st := &subtable{mask: *mask, seed: uint64(c.basis) + 0x9e3779b97f4a7c15, slots: make([]slot, minSlots), idx: uint32(idx)}
	for i, w := range mask {
		if w != 0 {
			st.words = append(st.words, maskWord{idx: uint8(i), bits: w})
		}
	}
	c.byIdx[idx] = st
	c.subtables = append(c.subtables, st)
	c.byMask[*mask] = st
	return st
}

func (c *Classifier) dropSubtable(st *subtable) {
	delete(c.byMask, st.mask)
	c.byIdx[st.idx] = nil
	c.subtables = slices.DeleteFunc(c.subtables, func(s *subtable) bool { return s == st })
}
