// Package dpcls implements the datapath classifier: the megaflow cache that
// backs the EMC in the OVS userspace datapath.
//
// Megaflows are wildcarded flow entries produced by slow-path translation.
// The classifier is a tuple-space search: one hash subtable per distinct
// mask, probed in descending hit-count order (as OVS sorts subtables by
// usage). Megaflows installed by ofproto translation are disjoint by
// construction, so the first match wins and no priorities are needed.
//
// Megaflows live by value in a slab of pointer-free records and are named by
// generation-tagged refs, so the collector never scans them and a record is
// recycled the moment its megaflow is removed: a ref still held by a cache
// fails the generation compare instead of resurrecting with another flow's
// actions. A subtable is a flat open-addressed table of 8-byte slots (the
// cmap analog), probed with a hash of only the words its mask covers; see
// table.go.
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

// Entry is one installed megaflow, a 120-byte record in its classifier's
// slab with no pointer in it. An *Entry is good for the pass that resolved
// it, not across an install (see alloc); anything kept longer holds a Ref.
type Entry struct {
	// Hits counts packets matched, for revalidator heuristics. With
	// hardware offload enabled, the periodic counter readback merges
	// hardware matches in here too, so offloaded flows keep looking alive
	// to the revalidator.
	Hits uint64

	// gen is the record's generation, part of every Ref naming it; freeing
	// the record advances it, so refs to the removed megaflow go stale.
	gen uint32
	// actions indexes the classifier's action table (actions.go); while
	// the record is free it links the free list instead.
	actions uint32
	// sub indexes the owning subtable in Classifier.byIdx.
	sub uint32

	// OffloadMark is the hardware-offload engine's per-flow flag: nonzero
	// while the engine classes this megaflow an elephant whose exact keys
	// should be pushed to the NIC. The classifier itself never reads it;
	// it lives here so the per-packet elephant check is one field load
	// instead of a map probe.
	OffloadMark uint8

	// MaskedKey is the key already masked (key.Apply(mask)).
	MaskedKey flow.Key
}

// Ref names one installed megaflow: its record's slab index in the low 32
// bits and the record's generation at install in the high 32. A ref goes
// stale when its megaflow is removed and never names another one, even
// after the record is recycled. The zero Ref names nothing.
type Ref uint64

func makeRef(idx, gen uint32) Ref { return Ref(gen)<<32 | Ref(idx) }

// The slab grows by chunks of chunkSize records (120 KiB, 15 pages), which
// never move; the first starts at firstChunk records and doubles.
const chunkBits, chunkSize, firstChunk = 10, 1 << chunkBits, 16

// rec returns the record at slab index i.
func (c *Classifier) rec(i uint32) *Entry { return &c.slab[i>>chunkBits][i&(chunkSize-1)] }

// Get returns the live megaflow r names, or nil if r is stale or zero.
func (c *Classifier) Get(r Ref) *Entry {
	i := uint32(r)
	if i >= c.recs {
		return nil
	}
	if e := c.rec(i); e.gen == uint32(r>>32) && e.gen != 0 {
		return e
	}
	return nil
}

// Live reports whether r still names an installed megaflow: the caches'
// liveness check, one generation compare.
func (c *Classifier) Live(r Ref) bool { return c.Get(r) != nil }

// Actions returns the action list e executes, shared with every megaflow
// installed from the same list: never write into it.
func (c *Classifier) Actions(e *Entry) []ofproto.DPAction { return c.acts.lists[e.actions].list }

// Mask returns the fields e constrains: its subtable's mask.
func (c *Classifier) Mask(e *Entry) flow.Mask { return c.byIdx[e.sub].mask }

// Matches reports whether key falls under e: key masked by e's mask equals
// its masked key, compared in place without building the masked copy. It is
// the verification the signature cache owes every candidate.
func (c *Classifier) Matches(e *Entry, key *flow.Key) bool { return c.byIdx[e.sub].matches(e, key) }

// String prints e as a flow: its match in the flow text of
// flow.MatchFields, then hits and actions.
func (c *Classifier) String(e *Entry) string {
	return fmt.Sprintf("megaflow{%s hits=%d actions=%v}", flow.SpecOf(e.MaskedKey, c.Mask(e)), e.Hits, c.Actions(e))
}

// Handle names a megaflow by its classifier and ref: what outlives a packet
// pass (flow dumps, the revalidator's deadlines, hardware-rule cookies).
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

	// slab holds the records; recs counts the indices handed out so far,
	// record 0 included (it never is: slot 0 and link 0 mean none), and
	// free heads the list of removed records, linked through actions.
	slab [][]Entry
	recs uint32
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
	OnInsert func(Ref)

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
	if c.lookup.Ref, probes = c.LookupKey(&key); c.lookup.Ref != 0 {
		h = &c.lookup
	}
	return h, probes
}

// LookupKey finds the megaflow matching key, counting the hit on it. It
// returns its ref and the number of subtables probed (for cost
// accounting), or zero and the full probe count on a miss.
func (c *Classifier) LookupKey(key *flow.Key) (Ref, int) {
	c.Lookups++
	probes := 0
	for _, st := range c.subtables {
		probes++
		c.SubtableProbes++
		if i, e := st.find(c, key, st.hash(key)); e != nil {
			e.Hits++
			st.hits++
			c.maybeResort()
			return makeRef(i, e.gen), probes
		}
	}
	c.maybeResort()
	return 0, probes
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
	if i, e := st.find(c, key, h); e != nil {
		old := e.actions
		e.actions = c.acts.intern(actions)
		c.acts.release(old)
		return makeRef(i, e.gen)
	}
	c.count++
	i, e := c.alloc()
	e.actions, e.sub, e.MaskedKey = c.acts.intern(actions), st.idx, key.Apply(*mask)
	st.insert(h, i)
	r := makeRef(i, e.gen)
	if c.OnInsert != nil {
		c.OnInsert(r)
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
	st.remove(st.hash(&e.MaskedKey), uint32(r))
	c.freeRec(uint32(r))
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
		c.freeRec(uint32(r))
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

// Subtables returns the number of distinct masks installed.
func (c *Classifier) Subtables() int { return len(c.subtables) }

// Refs appends the refs of all installed megaflows to buf (truncated first)
// and returns it — the allocation-free dump the revalidator and the offload
// engine reuse their buffers across sweeps with. Order is unspecified.
func (c *Classifier) Refs(buf []Ref) []Ref {
	buf = buf[:0]
	for _, st := range c.subtables {
		for _, s := range st.slots {
			if s.rec != 0 {
				buf = append(buf, makeRef(s.rec, c.rec(s.rec).gen))
			}
		}
	}
	return buf
}

// alloc takes a record off the free list, or the next record never handed
// out, adding a chunk to the slab when it is full. The first chunk doubles
// from firstChunk records instead, so a classifier of a few megaflows does
// not hold 120 KiB; its records move while it grows, which is why no
// *Entry is kept across an install. A fresh record starts at generation 1,
// so no live ref has generation 0.
func (c *Classifier) alloc() (uint32, *Entry) {
	if i := c.free; i != 0 {
		e := c.rec(i)
		c.free = e.actions
		return i, e
	}
	i := max(c.recs, 1)
	switch {
	case len(c.slab) == 0:
		c.slab = append(c.slab, make([]Entry, firstChunk))
	case len(c.slab) == 1 && int(i) == len(c.slab[0]) && i < chunkSize:
		c.slab[0] = append(make([]Entry, 0, 2*i), c.slab[0]...)[:2*i]
	case int(i>>chunkBits) == len(c.slab):
		if i == ^uint32(0) {
			panic("dpcls: 2^32 megaflow records")
		}
		c.slab = append(c.slab, make([]Entry, chunkSize))
	}
	c.recs = i + 1
	e := c.rec(i)
	e.gen = 1
	return i, e
}

// freeRec releases record i's action list, resets it under its next
// generation and pushes it on the free list.
func (c *Classifier) freeRec(i uint32) {
	e := c.rec(i)
	c.acts.release(e.actions)
	gen := e.gen + 1
	if gen == 0 {
		gen = 1
	}
	*e = Entry{gen: gen, actions: c.free}
	c.free = i
}

func (c *Classifier) newSubtable(mask *flow.Mask) *subtable {
	idx := slices.Index(c.byIdx, nil)
	if idx < 0 {
		idx = len(c.byIdx)
		c.byIdx = append(c.byIdx, nil)
	}
	st := newSubtable(mask, c.basis)
	st.idx = uint32(idx)
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
