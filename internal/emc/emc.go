// Package emc implements the exact-match cache, the first-level cache of the
// OVS userspace datapath. Each entry maps a complete flow key to the
// megaflow entry that handles it, so the common case costs one hash and one
// key comparison.
//
// The paper's history section (2.1) notes the Linux maintainers rejected an
// exact-match flow cache for the kernel datapath on design principle; the
// userspace datapath has had one all along, and the 1,000-flow columns of
// Figure 9 are specifically chosen to stress it ("a worst case scenario for
// the OVS datapath because it causes a high miss rate in the OVS caching
// layer"). The implementation follows OVS: a fixed-size, 2-way set
// associative table with pseudo-random replacement and no locks (one EMC per
// PMD thread), probed tag first — OVS's emc_lookup compares the entry's
// stored key.hash before it touches the miniflow, so in that worst case a
// probe that misses reads two words, not two keys.
package emc

import (
	"math/bits"

	"ovsxdp/internal/flow"
)

// Ways is the set associativity of the cache.
const Ways = 2

// way is the probe side of one slot: everything a lookup reads to reject it.
// tag is the cached key's 32-bit hash, validBit, and from slotShift up the
// way's slab slot plus one (zero: never filled). A probe compares probeBits,
// so one word compare answers "in use, and possibly this key".
type way[V any] struct {
	tag   uint64
	value V
}

const (
	validBit  = 1 << 32
	probeBits = validBit<<1 - 1 // the hash and valid bit: all a clear drops
	slotShift = 33
	slabStart = 64 // keys in the slab's first allocation; it doubles from there
)

// Cache is a fixed-size exact-match cache from flow.Key to V (typically the
// megaflow entry installed by the classifier). It costs its probe side plus
// the keys of the ways it has filled. ways is dense (32 bytes per set for a
// pointer V, 128 KiB at the default size) and stays cache-resident however
// many flows thrash the cache; a 96-byte key is loaded only once its tag has
// matched, from the slab slot its way took when first filled and keeps for
// life (a clear drops only probeBits), so the slab needs no free list and
// never outgrows the ways. Keys are reached by index: the slab may move.
type Cache[V any] struct {
	ways  [][Ways]way[V]
	slab  []flow.Key
	mask  uint32
	basis uint32
	count int // live entries (kept incrementally; Len is O(1))

	// alive, when set, is consulted on every lookup hit: an entry whose
	// value it rejects is purged and the lookup misses — OVS's
	// emc_entry_alive check. This is what makes megaflow deletion O(1)
	// for the EMC: a delete marks the megaflow dead and its cache entries
	// evaporate lazily, instead of a full-cache scan (or worse, a full
	// flush) per delete.
	alive func(V) bool

	// Stats.
	Hits      uint64
	Misses    uint64
	Inserts   uint64
	Evictions uint64
	// StalePurged counts entries lazily removed by the alive check.
	StalePurged uint64
}

// SetAliveCheck registers the liveness predicate applied to cached values
// on lookup and insert. nil disables the check (every entry is alive).
func (c *Cache[V]) SetAliveCheck(fn func(V) bool) { c.alive = fn }

// New returns a cache with the given number of entries, rounded up to a
// power of two, at least Ways.
func New[V any](entries int, hashBasis uint32) *Cache[V] {
	n := 1 << bits.Len(uint(max(entries, Ways)/Ways-1)) // sets
	return &Cache[V]{ways: make([][Ways]way[V], n), mask: uint32(n - 1), basis: hashBasis}
}

// find returns the way of set that holds key, whose Hash is h, or -1.
func (c *Cache[V]) find(set *[Ways]way[V], h uint32, key *flow.Key) int {
	for i := range set {
		if set[i].tag&probeBits == uint64(h)|validBit && c.slab[set[i].tag>>slotShift-1] == *key {
			return i
		}
	}
	return -1
}

// clear frees w but keeps its slot.
func (w *way[V]) clear() { *w = way[V]{tag: w.tag &^ probeBits} }

// fill caches key and value in w under tag, in the slab slot w took when
// first filled; a way never filled takes the next one.
func (c *Cache[V]) fill(w *way[V], tag uint64, key *flow.Key, value V) {
	slot := w.tag >> slotShift
	if slot == 0 {
		if len(c.slab) == cap(c.slab) {
			c.slab = append(make([]flow.Key, 0, min(max(2*cap(c.slab), slabStart), len(c.ways)*Ways)), c.slab...)
		}
		c.slab = append(c.slab, flow.Key{})
		slot = uint64(len(c.slab))
	}
	c.slab[slot-1] = *key
	*w = way[V]{slot<<slotShift | tag, value}
}

// Hash returns key's hash under this cache's basis: the value LookupHashed
// and InsertHashed take, so one packet pass hashes its key once for both.
func (c *Cache[V]) Hash(key *flow.Key) uint32 { return key.Hash(c.basis) }

// Lookup is LookupHashed for callers holding the key by value.
func (c *Cache[V]) Lookup(key flow.Key) (V, bool) { return c.LookupHashed(&key, c.Hash(&key)) }

// LookupHashed returns the value cached for key, whose Hash is h, if any. An
// entry whose value fails the alive check is purged and reported as a miss.
func (c *Cache[V]) LookupHashed(key *flow.Key, h uint32) (V, bool) {
	set := &c.ways[h&c.mask]
	if i := c.find(set, h, key); i >= 0 {
		if c.alive == nil || c.alive(set[i].value) {
			c.Hits++
			return set[i].value, true
		}
		set[i].clear()
		c.count--
		c.StalePurged++
	}
	c.Misses++
	var zero V
	return zero, false
}

// Insert is InsertHashed for callers holding the key by value.
func (c *Cache[V]) Insert(key flow.Key, value V) { c.InsertHashed(&key, c.Hash(&key), value) }

// InsertHashed caches value for key, whose Hash is h, replacing an existing
// entry for the same key or evicting a pseudo-randomly chosen way.
func (c *Cache[V]) InsertHashed(key *flow.Key, h uint32, value V) {
	set := &c.ways[h&c.mask]
	c.Inserts++
	// Same key: update in place.
	if i := c.find(set, h, key); i >= 0 {
		set[i].value = value
		return
	}
	// Free way — a slot holding a dead value counts as free (lazy purge).
	victim := -1
	for i := 0; i < Ways && victim < 0; i++ {
		if set[i].tag&validBit == 0 {
			victim = i
			c.count++
		} else if c.alive != nil && !c.alive(set[i].value) {
			victim = i
			c.StalePurged++
		}
	}
	if victim < 0 {
		// Evict: the victim way comes from the key's own hash bits above
		// the set index, OVS's pseudo-random replacement. A cache-global
		// rotor would make every set evict the same way in lockstep, so two
		// keys alternating in one set deterministically thrash each other
		// while the other way's entry never ages out.
		victim = int((h >> 16) % Ways)
		c.Evictions++
	}
	c.fill(&set[victim], uint64(h)|validBit, key, value)
}

// Flush removes every entry (megaflow revalidation invalidating the cache).
// Every way keeps its slot: a key is never read without a valid tag.
func (c *Cache[V]) Flush() {
	for s := range c.ways {
		for w := range c.ways[s] {
			c.ways[s][w].clear()
		}
	}
	c.count = 0
}

// Len returns the number of live entries. It is O(1): the datapath consults
// it per packet for the cold-flow cache-pressure heuristic.
func (c *Cache[V]) Len() int { return c.count }
