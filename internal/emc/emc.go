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
// PMD thread).
package emc

import (
	"ovsxdp/internal/flow"
)

// Ways is the set associativity of the cache.
const Ways = 2

// DefaultEntries matches OVS's EM_FLOW_HASH_ENTRIES.
const DefaultEntries = 8192

// Entry is one cache slot.
type entry[V any] struct {
	key   flow.Key
	value V
	valid bool
}

// fill overwrites the slot field by field, so no temporary entry is built
// and copied.
func (e *entry[V]) fill(key *flow.Key, value V) {
	e.key = *key
	e.value = value
	e.valid = true
}

// Cache is a fixed-size exact-match cache from flow.Key to V (typically the
// megaflow entry installed by the classifier).
type Cache[V any] struct {
	sets  [][Ways]entry[V]
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
	if entries < Ways {
		entries = Ways
	}
	n := 1
	for n < entries/Ways {
		n <<= 1
	}
	return &Cache[V]{sets: make([][Ways]entry[V], n), mask: uint32(n - 1), basis: hashBasis}
}

// Hash returns key's hash under this cache's basis: the value LookupHashed
// and InsertHashed take, so one packet pass hashes its key once for both.
func (c *Cache[V]) Hash(key *flow.Key) uint32 { return key.Hash(c.basis) }

// Lookup is LookupHashed for callers holding the key by value.
func (c *Cache[V]) Lookup(key flow.Key) (V, bool) { return c.LookupHashed(&key, c.Hash(&key)) }

// LookupHashed returns the value cached for key, whose Hash is h, if any. An
// entry whose value fails the alive check is purged and reported as a miss.
func (c *Cache[V]) LookupHashed(key *flow.Key, h uint32) (V, bool) {
	set := &c.sets[h&c.mask]
	for i := range set {
		if set[i].valid && set[i].key == *key {
			if c.alive != nil && !c.alive(set[i].value) {
				set[i] = entry[V]{}
				c.count--
				c.StalePurged++
				break
			}
			c.Hits++
			return set[i].value, true
		}
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
	set := &c.sets[h&c.mask]
	c.Inserts++
	// Same key: update in place.
	for i := range set {
		if set[i].valid && set[i].key == *key {
			set[i].value = value
			return
		}
	}
	// Free way — a slot holding a dead value counts as free (lazy purge).
	for i := range set {
		if !set[i].valid {
			set[i].fill(key, value)
			c.count++
			return
		}
		if c.alive != nil && !c.alive(set[i].value) {
			set[i].fill(key, value)
			c.StalePurged++
			return
		}
	}
	// Evict: the victim way comes from the key's own hash bits above the
	// set index, OVS's pseudo-random replacement. A cache-global rotor
	// would make every set evict the same way in lockstep, so two keys
	// alternating in one set deterministically thrash each other while the
	// other way's entry never ages out.
	victim := (h >> 16) % Ways
	set[victim].fill(key, value)
	c.Evictions++
}

// Invalidate removes the entry for key if present.
func (c *Cache[V]) Invalidate(key flow.Key) {
	set := &c.sets[key.Hash(c.basis)&c.mask]
	for i := range set {
		if set[i].valid && set[i].key == key {
			set[i] = entry[V]{}
			c.count--
		}
	}
}

// Flush removes every entry (megaflow revalidation invalidating the cache).
func (c *Cache[V]) Flush() {
	for i := range c.sets {
		c.sets[i] = [Ways]entry[V]{}
	}
	c.count = 0
}

// Len returns the number of live entries. It is O(1): the datapath consults
// it per packet for the cold-flow cache-pressure heuristic.
func (c *Cache[V]) Len() int { return c.count }

// Capacity returns the total number of slots.
func (c *Cache[V]) Capacity() int { return len(c.sets) * Ways }

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (c *Cache[V]) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}
