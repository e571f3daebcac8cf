// Package dpcls implements the datapath classifier: the megaflow cache that
// backs the EMC in the OVS userspace datapath.
//
// Megaflows are wildcarded flow entries produced by slow-path translation.
// The classifier is a tuple-space search: one hash subtable per distinct
// mask, probed in descending hit-count order (as OVS sorts subtables by
// usage). Megaflows installed by ofproto translation are disjoint by
// construction, so the first match wins and no priorities are needed.
//
// A subtable is a flat open-addressed table of hash-tagged entry pointers
// (the cmap analog), probed with a hash of only the words its mask covers;
// see table.go.
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

// Entry is one installed megaflow, 144 bytes. The fields a hit touches come
// first, so they share the head of the object with the first words of the
// key the probe just compared.
type Entry struct {
	// Actions is the action list the datapath executes; the classifier
	// does not interpret it.
	Actions []ofproto.DPAction

	// Hits counts packets matched, for revalidator heuristics. With
	// hardware offload enabled, the periodic counter readback merges
	// hardware matches in here too, so offloaded flows keep looking alive
	// to the revalidator and the cache aliveness checks.
	Hits uint64

	// mask is the owning subtable's mask, shared by all its megaflows; nil
	// only in an Entry no classifier built.
	mask *flow.Mask

	// OffloadMark is the hardware-offload engine's per-flow flag: nonzero
	// while the engine classes this megaflow an elephant whose exact keys
	// should be pushed to the NIC. The classifier itself never reads it;
	// it lives here so the per-packet elephant check is one field load
	// instead of a map probe.
	OffloadMark uint8

	// dead marks an entry no longer installed in any classifier. Caches
	// that hold *Entry pointers (the EMC) consult it lazily on lookup
	// instead of being scanned eagerly on every delete — OVS's
	// emc_entry_alive discipline. Remove and Flush set it; an entry is
	// never resurrected (replacement updates the live entry in place, so
	// a dead pointer stays dead forever).
	dead bool

	// MaskedKey is the key already masked (key.Apply(Mask())).
	MaskedKey flow.Key
}

// Mask returns the fields this megaflow constrains: its subtable's mask,
// or the zero mask for an Entry no classifier built.
func (e *Entry) Mask() flow.Mask {
	if e.mask == nil {
		return flow.Mask{}
	}
	return *e.mask
}

// MarkDead marks the entry as removed from the datapath. Idempotent.
func (e *Entry) MarkDead() { e.dead = true }

// Dead reports whether the entry has been removed from the datapath.
func (e *Entry) Dead() bool { return e.dead }

// Matches reports whether key falls under this megaflow: key masked by
// Mask() equals MaskedKey, compared in place without building the masked
// copy. It is the verification the signature cache owes every candidate.
func (e *Entry) Matches(key *flow.Key) bool {
	for i := range key {
		if key[i]&e.mask[i] != e.MaskedKey[i] {
			return false
		}
	}
	return true
}

// String summarizes the entry.
func (e *Entry) String() string {
	return fmt.Sprintf("megaflow{bits=%d hits=%d %s}", e.Mask().Bits(), e.Hits, e.MaskedKey)
}

// Classifier is the tuple-space-search megaflow table. It is used from a
// single PMD thread (each PMD owns one, as in OVS) so it needs no locking.
type Classifier struct {
	// subtables stays a slice because Lookup probes it in descending
	// hit-count order; byMask indexes the same subtables so Insert and
	// Remove resolve a mask in O(1) instead of scanning.
	subtables []*subtable
	byMask    map[flow.Mask]*subtable
	// basis seeds every subtable's slot hash, so per-PMD classifiers and
	// the kernel flow table place the same megaflows differently.
	basis uint32
	count int

	// Lookups and SubtableProbes feed the cost model: a lookup costs
	// per-subtable-probed.
	Lookups        uint64
	SubtableProbes uint64
	// resort counts down to the next usage-based reordering.
	resort int

	// OnInsert, when set, is called for every freshly allocated entry —
	// not for in-place replacements, whose pointer the caller already
	// holds. It is the flow-installed notification the incremental
	// (wheel-based) revalidator registers expiry timers from.
	OnInsert func(*Entry)
}

// New returns an empty classifier whose slot hashes are seeded with
// hashBasis.
func New(hashBasis uint32) *Classifier {
	return &Classifier{
		byMask: make(map[flow.Mask]*subtable),
		basis:  hashBasis,
		resort: resortInterval,
	}
}

// resortInterval is how many lookups happen between subtable reorderings.
const resortInterval = 1024

// Lookup is LookupKey for callers holding the key by value.
func (c *Classifier) Lookup(key flow.Key) (*Entry, int) { return c.LookupKey(&key) }

// LookupKey finds the megaflow matching key. It returns the entry and the
// number of subtables probed (for cost accounting), or nil and the full
// probe count on a miss.
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
func (c *Classifier) Insert(key flow.Key, mask flow.Mask, actions []ofproto.DPAction) *Entry {
	return c.InsertKey(&key, &mask, actions)
}

// InsertKey installs a megaflow for key under mask with the given actions
// and returns the entry. Inserting a key that matches an existing entry of
// the same mask replaces its actions in place: the existing *Entry (which
// the EMC and SMC may still point to) keeps its identity and hit count, so
// cached hits execute the new actions immediately instead of forwarding
// with the stale ones a freshly allocated entry would leave behind.
func (c *Classifier) InsertKey(key *flow.Key, mask *flow.Mask, actions []ofproto.DPAction) *Entry {
	st := c.byMask[*mask]
	if st == nil {
		st = newSubtable(mask, c.basis)
		c.subtables = append(c.subtables, st)
		c.byMask[*mask] = st
	}
	h := st.hash(key)
	if e := st.find(key, h); e != nil {
		e.Actions = actions
		return e
	}
	c.count++
	e := &Entry{Actions: actions, mask: st.mask, MaskedKey: key.Apply(*mask)}
	st.insert(h, e)
	if c.OnInsert != nil {
		c.OnInsert(e)
	}
	return e
}

// Remove deletes the megaflow that entry represents. It reports whether an
// entry was removed: a pointer that is no longer installed (already removed,
// even if its masked key has since been installed again) removes nothing.
func (c *Classifier) Remove(e *Entry) bool {
	st := c.byMask[e.Mask()]
	if st == nil || !st.remove(e) {
		return false
	}
	e.MarkDead()
	c.count--
	if st.n == 0 {
		c.dropSubtable(st)
	}
	return true
}

// Flush removes every megaflow (marking each dead for the pointer caches)
// and resets the lookup statistics and the resort countdown, so a reused
// classifier starts from the same state a fresh one would — probes per
// lookup and the cost model are not skewed by a previous table's history.
func (c *Classifier) Flush() {
	for _, e := range c.Entries() {
		e.MarkDead()
	}
	c.subtables = nil
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

// Entries returns all installed megaflows (for the revalidator); order is
// unspecified.
func (c *Classifier) Entries() []*Entry {
	return c.EntriesInto(make([]*Entry, 0, c.count))
}

// EntriesInto appends all installed megaflows into buf (truncated first)
// and returns it — the allocation-free dump the revalidator reuses its
// buffer across sweeps with. Order is unspecified.
func (c *Classifier) EntriesInto(buf []*Entry) []*Entry {
	buf = buf[:0]
	for _, st := range c.subtables {
		for _, s := range st.slots {
			if s.e != nil {
				buf = append(buf, s.e)
			}
		}
	}
	return buf
}

func (c *Classifier) dropSubtable(st *subtable) {
	delete(c.byMask, *st.mask)
	c.subtables = slices.DeleteFunc(c.subtables, func(s *subtable) bool { return s == st })
}
