// Package smc implements the signature match cache, the second-level cache
// of the OVS userspace datapath (dpif-netdev's "SMC", added in OVS 2.10 and
// enabled with smc-enable=true).
//
// Where the EMC stores the full flow key per entry (and therefore thrashes
// beyond ~8k flows), the SMC stores only a 16-bit signature of the key's
// hash plus a 16-bit index into an indirection table of installed megaflows.
// That makes each entry 4 bytes, so the same cache budget covers two orders
// of magnitude more flows — at the price of an extra indirection and a
// mandatory verification of the candidate megaflow against the packet's key
// (two signatures can collide, and a signature can go stale after its
// megaflow was removed). A hit therefore costs more than an EMC hit but far
// less than a multi-subtable dpcls probe, which is exactly the 10k-100k
// flow-count regime the cache-hierarchy sweep experiment explores.
//
// Layout follows OVS: 4-way set-associative buckets of (sig, index) pairs,
// an index->*dpcls.Entry table capped at 2^16 entries (megaflows beyond
// that are simply not SMC-cacheable, as in OVS where only the low 16 bits
// of the cmap position are stored), and invalidation by clearing the
// indirection slot so stale bucket entries miss on verification.
package smc

import (
	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/flow"
)

// Ways is the set associativity of a bucket (SMC_ENTRY_PER_BUCKET).
const Ways = 4

// maxIndex bounds the indirection table: indices are 16-bit, and the top
// value is reserved as the empty marker.
const maxIndex = 1<<16 - 1

// emptyIdx marks a never-written bucket way.
const emptyIdx uint16 = 0xffff

// bucket is one 4-way set: parallel signature and index arrays, 16 bytes.
type bucket struct {
	sig [Ways]uint16
	idx [Ways]uint16
}

// Cache is a fixed-size signature match cache resolving flow keys to
// installed megaflows. Like the EMC it is per-PMD and lockless.
type Cache struct {
	buckets []bucket
	mask    uint32
	basis   uint32

	// flows is the index->megaflow indirection table; index[e] is its
	// inverse. freed recycles indices of removed megaflows — safe because
	// every lookup verifies the candidate against the packet's key, so a
	// stale signature resolving to a recycled index either matches the new
	// megaflow legitimately or misses.
	flows []*dpcls.Entry
	index map[*dpcls.Entry]uint16
	freed []uint16

	count int // occupied bucket ways (approximate occupancy; see Len)

	// Stats.
	Hits      uint64
	Misses    uint64
	Inserts   uint64
	Evictions uint64
	// StaleSkips counts probed ways whose signature matched but whose
	// megaflow was gone or failed verification — the cost of storing
	// signatures instead of keys.
	StaleSkips uint64
	// Uncacheable counts inserts refused because the indirection table was
	// at its 16-bit capacity.
	Uncacheable uint64
}

// New returns a cache with the given number of entries, rounded up to a
// power of two, at least Ways.
func New(entries int, hashBasis uint32) *Cache {
	if entries < Ways {
		entries = Ways
	}
	n := 1
	for n < entries/Ways {
		n <<= 1
	}
	c := &Cache{
		buckets: make([]bucket, n),
		mask:    uint32(n - 1),
		basis:   hashBasis,
		index:   make(map[*dpcls.Entry]uint16),
	}
	c.clearBuckets()
	return c
}

// clearBuckets marks every way empty (index 0 is a valid megaflow index, so
// the empty marker must be written explicitly).
func (c *Cache) clearBuckets() {
	for i := range c.buckets {
		for w := 0; w < Ways; w++ {
			c.buckets[i].idx[w] = emptyIdx
		}
	}
}

// Hash returns key's hash under this cache's basis: the value LookupHashed
// and InsertHashed take, so one packet pass hashes its key once for both.
func (c *Cache) Hash(key *flow.Key) uint32 { return key.Hash(c.basis) }

// Lookup is LookupHashed for callers holding the key by value.
func (c *Cache) Lookup(key flow.Key) (*dpcls.Entry, bool) { return c.LookupHashed(&key, c.Hash(&key)) }

// LookupHashed resolves key, whose Hash is h, to a cached megaflow. The
// signature is the upper 16 bits of the hash; a signature match is only
// returned after the candidate megaflow verifies against the key (key masked
// by the megaflow's mask equals its masked key), so a collision or stale
// index can never mis-deliver a packet.
func (c *Cache) LookupHashed(key *flow.Key, h uint32) (*dpcls.Entry, bool) {
	b := &c.buckets[h&c.mask]
	sig := uint16(h >> 16)
	for w := 0; w < Ways; w++ {
		if b.idx[w] == emptyIdx || b.sig[w] != sig {
			continue
		}
		e := c.flows[b.idx[w]]
		if e == nil {
			c.StaleSkips++
			continue
		}
		if !e.Matches(key) {
			c.StaleSkips++
			continue
		}
		c.Hits++
		e.Hits++
		return e, true
	}
	c.Misses++
	return nil, false
}

// Insert is InsertHashed for callers holding the key by value.
func (c *Cache) Insert(key flow.Key, e *dpcls.Entry) { c.InsertHashed(c.Hash(&key), e) }

// InsertHashed caches the (signature -> megaflow index) mapping for the key
// whose Hash is h; only the hash is stored, so the key itself is not needed.
// The victim way on a full bucket comes from the key's own hash bits, the
// same pseudo-random replacement the EMC uses. Megaflows beyond the 16-bit
// index space are not cacheable and are skipped.
func (c *Cache) InsertHashed(h uint32, e *dpcls.Entry) {
	idx, ok := c.register(e)
	if !ok {
		c.Uncacheable++
		return
	}
	b := &c.buckets[h&c.mask]
	sig := uint16(h >> 16)
	c.Inserts++
	// Same signature: update the index in place.
	for w := 0; w < Ways; w++ {
		if b.idx[w] != emptyIdx && b.sig[w] == sig {
			b.idx[w] = idx
			return
		}
	}
	// Free or stale way.
	for w := 0; w < Ways; w++ {
		if b.idx[w] == emptyIdx {
			b.sig[w] = sig
			b.idx[w] = idx
			c.count++
			return
		}
		if c.flows[b.idx[w]] == nil {
			b.sig[w] = sig
			b.idx[w] = idx
			return
		}
	}
	victim := (h >> 16) % Ways
	b.sig[victim] = sig
	b.idx[victim] = idx
	c.Evictions++
}

// register returns the indirection-table index for e, allocating one if
// needed. It reports false when the 16-bit index space is exhausted.
func (c *Cache) register(e *dpcls.Entry) (uint16, bool) {
	if idx, ok := c.index[e]; ok {
		return idx, true
	}
	if n := len(c.freed); n > 0 {
		idx := c.freed[n-1]
		c.freed = c.freed[:n-1]
		c.flows[idx] = e
		c.index[e] = idx
		return idx, true
	}
	if len(c.flows) >= maxIndex {
		return 0, false
	}
	idx := uint16(len(c.flows))
	c.flows = append(c.flows, e)
	c.index[e] = idx
	return idx, true
}

// Invalidate unlinks a removed megaflow from the indirection table (megaflow
// delete, revalidator sweep). Bucket ways still carrying its signature are
// left in place and skipped as stale on their next probe; the index is
// recycled for future megaflows.
func (c *Cache) Invalidate(e *dpcls.Entry) {
	idx, ok := c.index[e]
	if !ok {
		return
	}
	c.flows[idx] = nil
	delete(c.index, e)
	c.freed = append(c.freed, idx)
}

// Flush drops every cached signature and the whole indirection table.
func (c *Cache) Flush() {
	c.clearBuckets()
	c.flows = c.flows[:0]
	c.index = make(map[*dpcls.Entry]uint16)
	c.freed = c.freed[:0]
	c.count = 0
}

// Len returns the number of occupied bucket ways. It is O(1) and feeds the
// same cold-flow cache-pressure heuristic the EMC occupancy does. The count
// is an upper bound on live signatures: invalidation leaves stale ways in
// place (they are reclaimed by later inserts), exactly as the real SMC's
// occupancy only shrinks by overwrite.
func (c *Cache) Len() int { return c.count }
