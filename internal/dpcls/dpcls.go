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
// 16-byte header and only the key words the subtable's mask covers (OVS's
// miniflow). A ref names one by its subtable and position plus the stamp of
// its install, which the header keeps, so the collector never scans them and
// a record is recycled the moment its megaflow is removed: a ref still held
// by a cache fails the stamp compare instead of resurrecting with another
// flow's actions. A subtable is a flat open-addressed table of 8-byte slots (the
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

// Entry is the header of one installed megaflow, a 16-byte record at its
// position in its subtable with no pointer in it; the masked key words sit
// at the same position in the subtable's key arena (Classifier.MaskedKey).
// Where it lives is not in it: the Ref naming it says that. An *Entry is
// good for the pass that resolved it, not across an install (see
// growRows); anything kept longer holds a Ref.
type Entry struct {
	// Hits counts packets matched, for revalidator heuristics. With
	// hardware offload enabled, the periodic counter readback merges
	// hardware matches in here too, so offloaded flows keep looking alive
	// to the revalidator.
	Hits uint64

	// stamp is the classifier's install count when the megaflow went in,
	// the high half of every ref naming it; 0 while the position is free.
	stamp uint32
	// actions indexes the classifier's action table (actions.go), with the
	// offload mark in its top bit; while the position is free it links the
	// subtable's free list instead.
	actions uint32
}

// markBit is the offload mark's bit in Entry.actions. The action table
// cannot reach it: 2^31 lists would take 64 GB.
const markBit = 1 << 31

// OffloadMarked reports the hardware-offload engine's per-flow mark: set
// while the engine classes this megaflow an elephant whose exact keys should
// be pushed to the NIC. The classifier itself never reads it; it lives in
// the header so the per-packet elephant check is one field load instead of
// a map probe.
func (e *Entry) OffloadMarked() bool { return e.actions&markBit != 0 }

// SetOffloadMark sets or clears the offload mark. An in-place replacement of
// the actions keeps it; removal clears it.
func (e *Entry) SetOffloadMark(on bool) {
	e.actions &^= markBit
	if on {
		e.actions |= markBit
	}
}

// Ref names one installed megaflow by where it lives and when it went in:
// its install stamp in the high 32 bits, then its subtable's index in
// Classifier.byIdx (subBits) and its position in the subtable (posBits). A
// ref goes stale when its megaflow is removed and never names another one,
// even after the position and the byIdx slot are reused: the megaflow that
// takes them has a later stamp. The zero Ref names nothing.
type Ref uint64

// A classifier holds at most 1<<subBits masks and 1<<posBits-1 megaflows
// under each (position 0 is never used).
const subBits, posBits = 10, 22

func makeRef(stamp, sub, pos uint32) Ref { return Ref(stamp)<<32 | Ref(sub)<<posBits | Ref(pos) }

func (r Ref) sub() uint32 { return uint32(r) >> posBits }
func (r Ref) pos() uint32 { return uint32(r) & (1<<posBits - 1) }

// Each subtable's records grow by chunks of chunkSize, which never move; the
// first starts at firstChunk and doubles (growRows).
const chunkBits, chunkSize, firstChunk = 10, 1 << chunkBits, 16

// Get returns the live megaflow r names, or nil if r is stale or zero: one
// stamp compare in the header at r's position. It runs on every cache hit,
// so it spells out the Ref accessors and hdr to stay inlinable.
func (c *Classifier) Get(r Ref) *Entry {
	s, p := uint32(r)>>posBits, uint32(r)&(1<<posBits-1)
	if s < uint32(len(c.byIdx)) {
		if st := c.byIdx[s]; st != nil && p < st.used {
			if e := &st.hdrs[p>>chunkBits][p&(chunkSize-1)]; e.stamp == uint32(r>>32) && e.stamp != 0 {
				return e
			}
		}
	}
	return nil
}

// Live reports whether r still names an installed megaflow: the caches'
// liveness check.
func (c *Classifier) Live(r Ref) bool { return c.Get(r) != nil }

// Actions returns the action list e executes, shared with every megaflow
// installed from the same list: never write into it.
func (c *Classifier) Actions(e *Entry) []ofproto.DPAction {
	return c.acts.lists[e.actions&^markBit].list
}

// Mask returns the fields the live megaflow r constrains: its subtable's
// mask.
func (c *Classifier) Mask(r Ref) flow.Mask { return c.byIdx[r.sub()].mask }

// Matches reports whether key falls under the live megaflow r: key masked by
// its mask equals its masked key, compared in place without building the
// masked copy. It is the verification the signature cache owes every
// candidate, so like Get it spells out the Ref accessors to stay inlinable.
func (c *Classifier) Matches(r Ref, key *flow.Key) bool {
	return c.byIdx[uint32(r)>>posBits].matches(uint32(r)&(1<<posBits-1), key)
}

// MaskedKey returns the key the live megaflow r matches, already masked
// (key.Apply(mask)): its stored words expanded back into a full key.
func (c *Classifier) MaskedKey(r Ref) flow.Key {
	var k flow.Key
	st := c.byIdx[r.sub()]
	for j, v := range st.row(r.pos()) {
		k[st.words[j].idx] = v
	}
	return k
}

// String prints the live megaflow r as a flow: its match in the flow text of
// flow.MatchFields, then hits and actions.
func (c *Classifier) String(r Ref) string {
	e := c.Get(r)
	return fmt.Sprintf("megaflow{%s hits=%d actions=%v}", flow.SpecOf(c.MaskedKey(r), c.Mask(r)), e.Hits, c.Actions(e))
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
	// a mask in O(1) instead of scanning, and byIdx is what a ref's subtable
	// index indexes (nil where a dropped subtable was, reused by the next
	// mask).
	subtables []*subtable
	byMask    map[flow.Mask]*subtable
	byIdx     []*subtable
	// basis seeds every subtable's slot hash, so per-PMD classifiers and
	// the kernel flow table place the same megaflows differently.
	basis uint32
	count int

	// stamp is the last install's stamp: it counts installs, skipping 0,
	// and Flush leaves it, so no stale ref's stamp is handed out again
	// before 2^32-1 more installs.
	stamp uint32
	acts  actionTable

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
	var r Ref
	if _, r, probes = c.LookupKey(&key); r != 0 {
		c.lookup.Ref, h = r, &c.lookup
	}
	return h, probes
}

// LookupKey finds the megaflow matching key, counting the hit on it. It
// returns the megaflow's header, its ref and the number of subtables probed
// (for cost accounting), or nil, 0 and the full probe count on a miss.
func (c *Classifier) LookupKey(key *flow.Key) (*Entry, Ref, int) {
	c.Lookups++
	probes := 0
	for _, st := range c.subtables {
		probes++
		c.SubtableProbes++
		if p := st.find(key, st.hash(key)); p != 0 {
			e := st.hdr(p)
			e.Hits++
			st.hits++
			c.maybeResort()
			return e, makeRef(e.stamp, st.idx, p), probes
		}
	}
	c.maybeResort()
	return nil, 0, probes
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
	if p := st.find(key, h); p != 0 {
		e := st.hdr(p)
		old := e.actions
		e.actions = c.acts.intern(actions) | old&markBit
		c.acts.release(old &^ markBit)
		return makeRef(e.stamp, st.idx, p)
	}
	c.count++
	if c.stamp++; c.stamp == 0 {
		c.stamp = 1
	}
	p := st.alloc()
	*st.hdr(p) = Entry{stamp: c.stamp, actions: c.acts.intern(actions)}
	row := st.row(p)
	for j, w := range st.words {
		row[j] = key[w.idx] & w.bits
	}
	st.insert(h, p)
	r := makeRef(c.stamp, st.idx, p)
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
	st, p := c.byIdx[r.sub()], r.pos()
	st.remove(st.hashRow(st.row(p)), p)
	c.acts.release(e.actions &^ markBit)
	st.free, *e = p, Entry{actions: st.free}
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
	c.subtables, c.byIdx, c.acts = nil, nil, newActionTable()
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
				buf = append(buf, makeRef(st.hdr(s.pos).stamp, st.idx, s.pos))
			}
		}
	}
	return buf
}

// newSubtable adds an empty subtable for mask, in the first free byIdx slot.
func (c *Classifier) newSubtable(mask *flow.Mask) *subtable {
	idx := slices.Index(c.byIdx, nil)
	if idx < 0 {
		if len(c.byIdx) == 1<<subBits {
			panic("dpcls: 1024 megaflow masks")
		}
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
