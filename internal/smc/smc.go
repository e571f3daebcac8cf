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
// an index->dpcls.Ref table capped at 2^16 entries (megaflows beyond that
// are simply not SMC-cacheable, as in OVS where only the low 16 bits of the
// cmap position are stored), and invalidation by clearing the indirection
// slot so stale bucket entries miss on verification.
package smc

import (
	"math/bits"

	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/flow"
)

// Ways is the set associativity of a bucket (SMC_ENTRY_PER_BUCKET).
const Ways = 4

const (
	// maxIndex bounds the indirection table: indices are 16-bit, and the
	// top value is reserved as the empty marker.
	maxIndex = 1<<16 - 1
	// emptyIdx marks a never-written bucket way.
	emptyIdx uint16 = 0xffff
	// A page is 256 buckets, 4 KiB.
	pageShift = 8
	pageMask  = 1<<pageShift - 1
)

// bucket is one 4-way set: parallel signature and index arrays, 16 bytes.
type bucket struct {
	sig [Ways]uint16
	idx [Ways]uint16
}

type page [1 << pageShift]bucket

// Cache is a fixed-size signature match cache resolving flow keys to
// installed megaflows. Like the EMC it is per-PMD and lockless. It costs the
// pages its flows touched: a page of buckets is allocated on the first
// insert into it, every way marked empty (index 0 is a valid megaflow
// index), a probe of a missing page misses, and Flush drops every page.
type Cache struct {
	pages []*page
	mask  uint32
	basis uint32

	// flows is the index->megaflow indirection table; index[r] is its
	// inverse. freed recycles indices of removed megaflows — safe because
	// every lookup verifies the candidate against the packet's key, so a
	// stale signature resolving to a recycled index either matches the new
	// megaflow legitimately or misses. Neither holds a pointer.
	flows []dpcls.Ref
	index map[dpcls.Ref]uint16
	freed []uint16

	// byValue is the classifier the by-value Lookup verifies against: the
	// one the last by-value Insert's megaflow lives in.
	byValue *dpcls.Classifier

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
	n := 1 << bits.Len(uint(max(entries, Ways)/Ways-1)) // buckets
	return &Cache{pages: make([]*page, (n-1)>>pageShift+1), mask: uint32(n - 1), basis: hashBasis, index: map[dpcls.Ref]uint16{}}
}

// Hash returns key's hash under this cache's basis: the value LookupHashed
// and InsertHashed take, so one packet pass hashes its key once for both.
func (c *Cache) Hash(key *flow.Key) uint32 { return key.Hash(c.basis) }

// Lookup is LookupHashed for callers holding the key by value, against the
// classifier of the last by-value Insert.
func (c *Cache) Lookup(key flow.Key) (dpcls.Ref, bool) {
	return c.LookupHashed(c.byValue, &key, c.Hash(&key))
}

// LookupHashed resolves key, whose Hash is h, to a megaflow of t, counting
// the hit on it. The signature is the upper 16 bits of the hash; a
// signature match is only returned after the candidate megaflow verifies
// against the key (key masked by the megaflow's mask equals its masked
// key), so a collision or stale index can never mis-deliver a packet.
func (c *Cache) LookupHashed(t *dpcls.Classifier, key *flow.Key, h uint32) (dpcls.Ref, bool) {
	i := h & c.mask
	if p := c.pages[i>>pageShift]; p != nil {
		b, sig := &p[i&pageMask], uint16(h>>16)
		for w := 0; w < Ways; w++ {
			if b.idx[w] == emptyIdx || b.sig[w] != sig {
				continue
			}
			r := c.flows[b.idx[w]]
			e := t.Get(r)
			if e == nil || !t.Matches(r, key) {
				c.StaleSkips++
				continue
			}
			c.Hits++
			e.Hits++
			return r, true
		}
	}
	c.Misses++
	return 0, false
}

// Insert is InsertHashed for callers holding the key by value and a handle.
func (c *Cache) Insert(key flow.Key, h *dpcls.Handle) {
	c.byValue = h.Table
	c.InsertHashed(c.Hash(&key), h.Ref)
}

// InsertHashed caches the (signature -> megaflow index) mapping for the key
// whose Hash is h; only the hash is stored, so the key itself is not needed.
// The victim way on a full bucket comes from the key's own hash bits, the
// same pseudo-random replacement the EMC uses. Megaflows beyond the 16-bit
// index space are not cacheable and are skipped.
func (c *Cache) InsertHashed(h uint32, r dpcls.Ref) {
	idx, ok := c.register(r)
	if !ok {
		c.Uncacheable++
		return
	}
	i := h & c.mask
	p := c.pages[i>>pageShift]
	if p == nil {
		p = new(page)
		for b := range p {
			p[b].idx = [Ways]uint16{emptyIdx, emptyIdx, emptyIdx, emptyIdx}
		}
		c.pages[i>>pageShift] = p
	}
	b, sig := &p[i&pageMask], uint16(h>>16)
	c.Inserts++
	// Same signature: update the index in place.
	for w := 0; w < Ways; w++ {
		if b.idx[w] != emptyIdx && b.sig[w] == sig {
			b.idx[w] = idx
			return
		}
	}
	// Free or stale way, else evict.
	victim := -1
	for w := 0; w < Ways && victim < 0; w++ {
		if b.idx[w] == emptyIdx {
			victim = w
			c.count++
		} else if c.flows[b.idx[w]] == 0 {
			victim = w
		}
	}
	if victim < 0 {
		victim = int(h>>16) % Ways
		c.Evictions++
	}
	b.sig[victim], b.idx[victim] = sig, idx
}

// register returns the indirection-table index for r, allocating one if
// needed. It reports false when the 16-bit index space is exhausted.
func (c *Cache) register(r dpcls.Ref) (uint16, bool) {
	if idx, ok := c.index[r]; ok {
		return idx, true
	}
	if n := len(c.freed); n > 0 {
		idx := c.freed[n-1]
		c.freed = c.freed[:n-1]
		c.flows[idx] = r
		c.index[r] = idx
		return idx, true
	}
	if len(c.flows) >= maxIndex {
		return 0, false
	}
	idx := uint16(len(c.flows))
	c.flows = append(c.flows, r)
	c.index[r] = idx
	return idx, true
}

// Invalidate unlinks a removed megaflow from the indirection table (megaflow
// delete, revalidator sweep). Bucket ways still carrying its signature are
// left in place and skipped as stale on their next probe; the index is
// recycled for future megaflows.
func (c *Cache) Invalidate(r dpcls.Ref) {
	idx, ok := c.index[r]
	if !ok {
		return
	}
	c.flows[idx] = 0
	delete(c.index, r)
	c.freed = append(c.freed, idx)
}

// Flush drops every cached signature, with the pages holding them, and the
// whole indirection table.
func (c *Cache) Flush() {
	clear(c.pages)
	c.flows = c.flows[:0]
	c.index = make(map[dpcls.Ref]uint16)
	c.freed = c.freed[:0]
	c.count = 0
}

// Len returns the number of occupied bucket ways. It is O(1) and feeds the
// same cold-flow cache-pressure heuristic the EMC occupancy does. The count
// is an upper bound on live signatures: invalidation leaves stale ways in
// place (they are reclaimed by later inserts), exactly as the real SMC's
// occupancy only shrinks by overwrite.
func (c *Cache) Len() int { return c.count }
