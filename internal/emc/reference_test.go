package emc

import (
	"math/rand"
	"testing"

	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/flow"
)

// entry is one slot of the reference cache.
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

// refCache is the EMC as it was before the tag-first layout: one
// {key, value, valid} entry per way, every probe comparing full keys. Its
// method bodies are the old ones verbatim; TestEMCMatchesReference and
// FuzzEMCOps hold Cache to it — every return value, all five counters and
// Len after every operation.
type refCache[V any] struct {
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
func (c *refCache[V]) SetAliveCheck(fn func(V) bool) { c.alive = fn }

func newRef[V any](entries int, hashBasis uint32) *refCache[V] {
	if entries < Ways {
		entries = Ways
	}
	n := 1
	for n < entries/Ways {
		n <<= 1
	}
	return &refCache[V]{sets: make([][Ways]entry[V], n), mask: uint32(n - 1), basis: hashBasis}
}

// Hash returns key's hash under this cache's basis: the value LookupHashed
// and InsertHashed take, so one packet pass hashes its key once for both.
func (c *refCache[V]) Hash(key *flow.Key) uint32 { return key.Hash(c.basis) }

// Lookup is LookupHashed for callers holding the key by value.
func (c *refCache[V]) Lookup(key flow.Key) (V, bool) { return c.LookupHashed(&key, c.Hash(&key)) }

// LookupHashed returns the value cached for key, whose Hash is h, if any. An
// entry whose value fails the alive check is purged and reported as a miss.
func (c *refCache[V]) LookupHashed(key *flow.Key, h uint32) (V, bool) {
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
func (c *refCache[V]) Insert(key flow.Key, value V) { c.InsertHashed(&key, c.Hash(&key), value) }

// InsertHashed caches value for key, whose Hash is h, replacing an existing
// entry for the same key or evicting a pseudo-randomly chosen way.
func (c *refCache[V]) InsertHashed(key *flow.Key, h uint32, value V) {
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
func (c *refCache[V]) Invalidate(key flow.Key) {
	set := &c.sets[key.Hash(c.basis)&c.mask]
	for i := range set {
		if set[i].valid && set[i].key == key {
			set[i] = entry[V]{}
			c.count--
		}
	}
}

// Flush removes every entry (megaflow revalidation invalidating the cache).
func (c *refCache[V]) Flush() {
	for i := range c.sets {
		c.sets[i] = [Ways]entry[V]{}
	}
	c.count = 0
}

// Len returns the number of live entries. It is O(1): the datapath consults
// it per packet for the cold-flow cache-pressure heuristic.
func (c *refCache[V]) Len() int { return c.count }

// emcPair drives a Cache and the reference through one operation stream and
// fails on the first observable difference.
type emcPair struct {
	t    testing.TB
	got  *Cache[*hval]
	ref  *refCache[*hval]
	vals []*hval // current value per key index; nil until first insert
	step int
}

func newEMCPair(t testing.TB, entries int, basis uint32, keys int, aliveCheck bool) *emcPair {
	p := &emcPair{t: t, got: New[*hval](entries, basis), ref: newRef[*hval](entries, basis), vals: make([]*hval, keys)}
	if aliveCheck {
		alive := func(v *hval) bool { return !v.dead }
		p.got.SetAliveCheck(alive)
		p.ref.SetAliveCheck(alive)
	}
	return p
}

// Operations of a differential stream.
const (
	opLookup = iota
	opLookupHashed
	opInsert
	opInsertHashed
	opInvalidate
	opMarkDead
	opFlush
	opCount
)

func (p *emcPair) apply(op, n int) {
	p.step++
	k := keyN(n)
	switch op {
	case opLookup, opLookupHashed:
		var gv, rv *hval
		var gok, rok bool
		if op == opLookup {
			gv, gok = p.got.Lookup(k)
			rv, rok = p.ref.Lookup(k)
		} else {
			gv, gok = p.got.LookupHashed(&k, p.got.Hash(&k))
			rv, rok = p.ref.LookupHashed(&k, p.ref.Hash(&k))
		}
		if gv != rv || gok != rok {
			p.t.Fatalf("step %d: lookup key %d = (%p, %v), reference (%p, %v)", p.step, n, gv, gok, rv, rok)
		}
	case opInsert, opInsertHashed:
		if p.vals[n] == nil {
			p.vals[n] = &hval{}
		}
		if op == opInsert {
			p.got.Insert(k, p.vals[n])
			p.ref.Insert(k, p.vals[n])
		} else {
			p.got.InsertHashed(&k, p.got.Hash(&k), p.vals[n])
			p.ref.InsertHashed(&k, p.ref.Hash(&k), p.vals[n])
		}
	case opInvalidate:
		p.got.Invalidate(k)
		p.ref.Invalidate(k)
	case opMarkDead:
		// The megaflow behind key n dies; a later insert caches its successor.
		if p.vals[n] != nil {
			p.vals[n].dead = true
			p.vals[n] = nil
		}
	case opFlush:
		p.got.Flush()
		p.ref.Flush()
	}
	g := countersOf(p.got)
	r := emcCounters{p.ref.Hits, p.ref.Misses, p.ref.Inserts, p.ref.Evictions, p.ref.StalePurged, p.ref.Len()}
	if g != r {
		p.t.Fatalf("step %d (op %d key %d): counters %+v, reference %+v", p.step, op, n, g, r)
	}
}

// checkSlots compares the two caches way by way: same occupancy, key and
// value in every slot, and every valid tag is its key's hash.
func (p *emcPair) checkSlots() {
	live := 0
	for s := range p.ref.sets {
		for w := range p.ref.sets[s] {
			r, g := &p.ref.sets[s][w], &p.got.ways[s][w]
			if r.valid != (g.tag != 0) {
				p.t.Fatalf("step %d: set %d way %d valid %v, reference %v", p.step, s, w, g.tag != 0, r.valid)
			}
			if !r.valid {
				continue
			}
			live++
			if gk := &p.got.keys[s][w]; *gk != r.key || g.value != r.value || g.tag != uint64(p.got.Hash(gk))|validBit {
				p.t.Fatalf("step %d: set %d way %d holds %v -> %p tag %#x, reference %v -> %p", p.step, s, w, *gk, g.value, g.tag, r.key, r.value)
			}
		}
	}
	if live != p.got.Len() {
		p.t.Fatalf("step %d: %d valid ways but Len() = %d", p.step, live, p.got.Len())
	}
}

// TestEMCMatchesReference replays seeded operation streams over 50k keys —
// half of the picks revisit one of the last 64 keys, so hits, in-place
// updates and purges of dead values all occur beside the thrashing — and
// requires the tag-first cache to agree with the reference on every return
// value, all five counters and Len after every operation, and slot by slot
// every 4096 operations.
func TestEMCMatchesReference(t *testing.T) {
	const keys, steps = 50000, 200000
	// Weights out of 64: the flush is rare so the cache is mostly full.
	weights := [opCount]int{opLookup: 8, opLookupHashed: 20, opInsert: 6, opInsertHashed: 18, opInvalidate: 5, opMarkDead: 6, opFlush: 1}
	for _, tc := range []struct {
		name       string
		seed       int64
		entries    int
		basis      uint32
		aliveCheck bool
	}{
		{"default-size", 1, costmodel.EMCEntries, 1, true},
		{"pmd1-basis", 2, costmodel.EMCEntries, 0x9e37 + 1, true},
		{"no-alive-check", 3, costmodel.EMCEntries, 7, false},
		{"tiny", 4, 16, 0, true},
		{"one-set", 5, Ways, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			p := newEMCPair(t, tc.entries, tc.basis, keys, tc.aliveCheck)
			var recent [64]int
			for i := 0; i < steps; i++ {
				n := rng.Intn(keys)
				if rng.Intn(2) == 0 {
					n = recent[rng.Intn(len(recent))]
				}
				recent[i%len(recent)] = n
				op, r := 0, rng.Intn(64)
				for r >= weights[op] {
					r -= weights[op]
					op++
				}
				p.apply(op, n)
				if i%4096 == 0 {
					p.checkSlots()
				}
			}
			p.checkSlots()
			if p.got.Hits == 0 || p.got.Evictions == 0 || (tc.aliveCheck && p.got.StalePurged == 0) {
				t.Fatalf("stream did not exercise the cache: %+v", countersOf(p.got))
			}
		})
	}
}

// FuzzEMCOps feeds byte-driven operation streams to a 16-entry cache (so
// every set is contended) and its reference: three bytes per operation, the
// opcode and a 16-bit key index.
func FuzzEMCOps(f *testing.F) {
	f.Add([]byte{opInsert, 0, 1, opLookup, 0, 1, opMarkDead, 0, 1, opLookupHashed, 0, 1})
	f.Add([]byte{opInsertHashed, 0, 1, opInsertHashed, 0, 9, opInsertHashed, 0, 17, opInvalidate, 0, 9, opFlush, 0, 0})
	f.Add([]byte{opInsert, 1, 0, opMarkDead, 1, 0, opInsert, 2, 0, opInsert, 3, 0, opLookup, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newEMCPair(t, 16, 1, 1<<16, len(data)%2 == 0)
		for ; len(data) >= 3; data = data[3:] {
			p.apply(int(data[0])%opCount, int(data[1])<<8|int(data[2]))
		}
		p.checkSlots()
	})
}
