package smc

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/flow"
)

// refCache is the SMC as it was before its buckets were held by page: one
// eager bucket array, every way marked empty up front and again on every
// flush. Its method bodies are the old ones verbatim; TestSMCMatchesReference
// and FuzzSMCOps hold Cache to it — every return value and counter after
// every operation, and bucket by bucket.
type refCache struct {
	buckets []bucket
	mask    uint32
	basis   uint32

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

// newRef returns a cache with the given number of entries, rounded up to a
// power of two, at least Ways.
func newRef(entries int, hashBasis uint32) *refCache {
	if entries < Ways {
		entries = Ways
	}
	n := 1
	for n < entries/Ways {
		n <<= 1
	}
	c := &refCache{
		buckets: make([]bucket, n),
		mask:    uint32(n - 1),
		basis:   hashBasis,
		index:   make(map[dpcls.Ref]uint16),
	}
	c.clearBuckets()
	return c
}

// clearBuckets marks every way empty (index 0 is a valid megaflow index, so
// the empty marker must be written explicitly). The first bucket is written
// and then copied over the rest in doubling runs, at memmove speed; a
// million-entry cache is flushed on every smc-enable and flow flush.
func (c *refCache) clearBuckets() {
	c.buckets[0] = bucket{}
	for w := range c.buckets[0].idx {
		c.buckets[0].idx[w] = emptyIdx
	}
	for n := 1; n < len(c.buckets); n *= 2 {
		copy(c.buckets[n:], c.buckets[:n])
	}
}

// Hash returns key's hash under this cache's basis: the value LookupHashed
// and InsertHashed take, so one packet pass hashes its key once for both.
func (c *refCache) Hash(key *flow.Key) uint32 { return key.Hash(c.basis) }

// Lookup is LookupHashed for callers holding the key by value, against the
// classifier of the last by-value Insert.
func (c *refCache) Lookup(key flow.Key) (dpcls.Ref, bool) {
	return c.LookupHashed(c.byValue, &key, c.Hash(&key))
}

// LookupHashed resolves key, whose Hash is h, to a megaflow of t, counting
// the hit on it. The signature is the upper 16 bits of the hash; a
// signature match is only returned after the candidate megaflow verifies
// against the key (key masked by the megaflow's mask equals its masked
// key), so a collision or stale index can never mis-deliver a packet.
func (c *refCache) LookupHashed(t *dpcls.Classifier, key *flow.Key, h uint32) (dpcls.Ref, bool) {
	b := &c.buckets[h&c.mask]
	sig := uint16(h >> 16)
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
	c.Misses++
	return 0, false
}

// Insert is InsertHashed for callers holding the key by value and a handle.
func (c *refCache) Insert(key flow.Key, h *dpcls.Handle) {
	c.byValue = h.Table
	c.InsertHashed(c.Hash(&key), h.Ref)
}

// InsertHashed caches the (signature -> megaflow index) mapping for the key
// whose Hash is h; only the hash is stored, so the key itself is not needed.
// The victim way on a full bucket comes from the key's own hash bits, the
// same pseudo-random replacement the EMC uses. Megaflows beyond the 16-bit
// index space are not cacheable and are skipped.
func (c *refCache) InsertHashed(h uint32, r dpcls.Ref) {
	idx, ok := c.register(r)
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
		if c.flows[b.idx[w]] == 0 {
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

// register returns the indirection-table index for r, allocating one if
// needed. It reports false when the 16-bit index space is exhausted.
func (c *refCache) register(r dpcls.Ref) (uint16, bool) {
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
func (c *refCache) Invalidate(r dpcls.Ref) {
	idx, ok := c.index[r]
	if !ok {
		return
	}
	c.flows[idx] = 0
	delete(c.index, r)
	c.freed = append(c.freed, idx)
}

// Flush drops every cached signature and the whole indirection table.
func (c *refCache) Flush() {
	c.clearBuckets()
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
func (c *refCache) Len() int { return c.count }

// smcPair drives a Cache and the reference through one operation stream
// against one classifier, in which each key index has its own exact-match
// megaflow, and fails on the first observable difference.
type smcPair struct {
	t    testing.TB
	got  *Cache
	ref  *refCache
	cls  *dpcls.Classifier
	vals []dpcls.Ref // current megaflow per key index; zero until first insert
	step int
}

func newSMCPair(t testing.TB, entries int, basis uint32, keys int) *smcPair {
	return &smcPair{t: t, got: New(entries, basis), ref: newRef(entries, basis), cls: dpcls.New(basis), vals: make([]dpcls.Ref, keys)}
}

// Operations of a differential stream.
const (
	opLookup = iota
	opLookupHashed
	opInsert
	opInsertHashed
	opInvalidate // the SMC forgets key n's megaflow, which stays installed
	opRemove     // key n's megaflow is removed and invalidated
	opFlush
	opCount
)

func (p *smcPair) apply(op, n int) {
	p.step++
	k := keyN(n)
	switch op {
	case opLookup, opLookupHashed:
		var gv, rv dpcls.Ref
		var gok, rok bool
		if op == opLookup && p.ref.byValue != nil {
			gv, gok = p.got.Lookup(k)
			rv, rok = p.ref.Lookup(k)
		} else {
			gv, gok = p.got.LookupHashed(p.cls, &k, p.got.Hash(&k))
			rv, rok = p.ref.LookupHashed(p.cls, &k, p.ref.Hash(&k))
		}
		if gv != rv || gok != rok {
			p.t.Fatalf("step %d: lookup key %d = (%#x, %v), reference (%#x, %v)", p.step, n, gv, gok, rv, rok)
		}
	case opInsert, opInsertHashed:
		if p.vals[n] == 0 {
			p.vals[n] = p.cls.Insert(k, flow.MaskAll(), nil)
		}
		if op == opInsert {
			p.got.Insert(k, &dpcls.Handle{Table: p.cls, Ref: p.vals[n]})
			p.ref.Insert(k, &dpcls.Handle{Table: p.cls, Ref: p.vals[n]})
		} else {
			p.got.InsertHashed(p.got.Hash(&k), p.vals[n])
			p.ref.InsertHashed(p.ref.Hash(&k), p.vals[n])
		}
	case opInvalidate, opRemove:
		if p.vals[n] == 0 {
			break
		}
		p.got.Invalidate(p.vals[n])
		p.ref.Invalidate(p.vals[n])
		if op == opRemove {
			p.cls.Remove(p.vals[n])
			p.vals[n] = 0
		}
	case opFlush:
		p.got.Flush()
		p.ref.Flush()
	}
	g, r := countersOf(p.got), smcCounters{p.ref.Hits, p.ref.Misses, p.ref.Inserts, p.ref.Evictions,
		p.ref.StaleSkips, p.ref.Uncacheable, p.ref.Len(), len(p.ref.index)}
	if g != r || len(p.got.flows) != len(p.ref.flows) || len(p.got.freed) != len(p.ref.freed) {
		p.t.Fatalf("step %d (op %d key %d): counters %+v, reference %+v", p.step, op, n, g, r)
	}
	if p.step%4096 == 0 {
		p.checkBuckets()
	}
}

// emptyBucket is a bucket no insert has written.
var emptyBucket = bucket{idx: [Ways]uint16{emptyIdx, emptyIdx, emptyIdx, emptyIdx}}

// checkBuckets compares the two caches bucket by bucket, a missing page
// reading as empty buckets, and the indirection tables entry by entry. A
// page exists only if an insert has written one of its buckets.
func (p *smcPair) checkBuckets() {
	if want := (len(p.ref.buckets)-1)>>pageShift + 1; len(p.got.pages) != want {
		p.t.Fatalf("step %d: %d pages for %d buckets, want %d", p.step, len(p.got.pages), len(p.ref.buckets), want)
	}
	for pi, pg := range p.got.pages {
		written := false
		for j := range 1 << pageShift {
			i, g, r := pi<<pageShift|j, emptyBucket, emptyBucket
			if pg != nil {
				g = pg[j]
			}
			if i < len(p.ref.buckets) {
				r = p.ref.buckets[i]
			}
			if g != r {
				p.t.Fatalf("step %d: bucket %d = %+v, reference %+v", p.step, i, g, r)
			}
			written = written || g != emptyBucket
		}
		if pg != nil && !written {
			p.t.Fatalf("step %d: page %d is allocated but no insert wrote it", p.step, pi)
		}
	}
	if !slices.Equal(p.got.flows, p.ref.flows) || !slices.Equal(p.got.freed, p.ref.freed) || !maps.Equal(p.got.index, p.ref.index) {
		p.t.Fatalf("step %d: indirection tables differ: %v %v, reference %v %v", p.step, p.got.flows, p.got.freed, p.ref.flows, p.ref.freed)
	}
}

// TestSMCMatchesReference replays seeded operation streams over 50k keys —
// half of the picks revisit one of the last 64 keys, so hits, in-place
// updates and stale signatures all occur beside the thrashing — and requires
// the paged cache to agree with the eager reference on every return value
// and counter after every operation, and bucket by bucket every 4096
// operations and at the end.
func TestSMCMatchesReference(t *testing.T) {
	const keys, steps = 50000, 200000
	// Weights out of 4096: the flush is rare so the cache fills.
	weights := [opCount]int{opLookup: 512, opLookupHashed: 1280, opInsert: 384, opInsertHashed: 1152, opInvalidate: 256, opRemove: 511, opFlush: 1}
	for _, tc := range []struct {
		name    string
		seed    int64
		entries int
		basis   uint32
	}{
		{"default-size", 1, costmodel.SMCEntries, 3},
		{"pmd1-basis", 2, costmodel.SMCEntries, 0x85eb + 3},
		{"evicts", 3, 4096, 3},
		{"under-a-page", 4, 64, 0},
		{"one-bucket", 5, Ways, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			p := newSMCPair(t, tc.entries, tc.basis, keys)
			var recent [64]int
			for i := 0; i < steps; i++ {
				n := rng.Intn(keys)
				if rng.Intn(2) == 0 {
					n = recent[rng.Intn(len(recent))]
				}
				recent[i%len(recent)] = n
				op, r := 0, rng.Intn(4096)
				for r >= weights[op] {
					r -= weights[op]
					op++
				}
				p.apply(op, n)
			}
			p.checkBuckets()
			if p.got.Hits == 0 || p.got.StaleSkips == 0 || (tc.entries <= 4096 && p.got.Evictions == 0) {
				t.Fatalf("stream did not exercise the cache: %+v", countersOf(p.got))
			}
		})
	}
}

// FuzzSMCOps feeds byte-driven operation streams to a cache of 4 to 8,192
// entries (up to 8 pages; the first byte picks the size) and its reference:
// three bytes per operation, the opcode and a 16-bit key index.
func FuzzSMCOps(f *testing.F) {
	f.Add([]byte{0, opInsert, 0, 1, opLookup, 0, 1, opRemove, 0, 1, opLookupHashed, 0, 1})
	f.Add([]byte{2, opInsertHashed, 0, 1, opInsertHashed, 0, 9, opInsertHashed, 0, 17, opInvalidate, 0, 9, opFlush, 0, 0, opLookup, 0, 17})
	f.Add([]byte{11, opInsert, 1, 0, opRemove, 1, 0, opInsert, 2, 0, opInsert, 3, 0, opLookup, 1, 0, opFlush, 0, 0, opInsert, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		p := newSMCPair(t, Ways<<(data[0]%12), 1, 1<<16)
		for data = data[1:]; len(data) >= 3; data = data[3:] {
			p.apply(int(data[0])%opCount, int(data[1])<<8|int(data[2]))
		}
		p.checkBuckets()
	})
}
