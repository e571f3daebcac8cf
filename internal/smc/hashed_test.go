package smc

import (
	"testing"

	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/flow"
)

// hashReuseSteps is the length of the key stream the hash-reuse test replays.
const hashReuseSteps = 50000

// replayStream drives c the way the datapath does — look the key up, and on
// a miss resolve the megaflow and insert — over a stream in which every
// other step revisits the key of 51 steps earlier. Keys fall under /24
// source-prefix megaflows; with deadEvery > 0 the current key's megaflow is
// deleted every deadEvery steps, leaving stale signatures behind. hashed
// selects the entry points that take a precomputed hash.
func replayStream(c *Cache, keys, deadEvery int, hashed bool) {
	cls := dpcls.New(0)
	mask := flow.NewMaskBuilder().InPort().IP4Src(24).Build()
	for i := 0; i < hashReuseSteps; i++ {
		n := i * 7919 % keys
		if i%2 == 1 && i > 51 {
			n = (i - 51) * 7919 % keys
		}
		k := keyN(n)
		if deadEvery > 0 && i%deadEvery == 0 {
			if e, _ := cls.Lookup(k); e != nil {
				cls.Remove(e)
				c.Invalidate(e)
			}
		}
		if hashed {
			h := c.Hash(&k)
			if _, ok := c.LookupHashed(&k, h); !ok {
				c.InsertHashed(h, cls.Insert(k, mask, nil))
			}
		} else if _, ok := c.Lookup(k); !ok {
			c.Insert(k, cls.Insert(k, mask, nil))
		}
	}
}

type smcCounters struct {
	Hits, Misses, Inserts, Evictions, StaleSkips, Uncacheable uint64
	Len, FlowCount                                            int
}

func countersOf(c *Cache) smcCounters {
	return smcCounters{c.Hits, c.Misses, c.Inserts, c.Evictions, c.StaleSkips, c.Uncacheable, c.Len(), len(c.index)}
}

// TestHashReuseLeavesSMCUnchanged: hashing a key once and handing the hash to
// the lookup and to the insert leaves every counter and every bucket where
// the by-value calls leave them. The want column was recorded from the
// by-value calls before the hashed entry points existed: bucket placement
// and signatures decide smc.hit_ratio, a virtual-clock output, so a changed
// hash value must fail here.
func TestHashReuseLeavesSMCUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name            string
		entries         int
		basis           uint32
		keys, deadEvery int
		want            smcCounters
	}{
		{"fits", costmodel.SMCEntries, 3, 50000, 0, smcCounters{24974, 25026, 25026, 0, 0, 0, 25026, 196}},
		{"evicts", 8192, 0x85eb + 3, 50000, 0, smcCounters{24861, 25139, 25139, 16952, 1, 0, 8186, 196}},
		{"stale-signatures", 8192, 3, 50000, 7, smcCounters{21299, 28701, 28701, 16965, 3551, 0, 8185, 196}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			byValue, hashed := New(tc.entries, tc.basis), New(tc.entries, tc.basis)
			replayStream(byValue, tc.keys, tc.deadEvery, false)
			replayStream(hashed, tc.keys, tc.deadEvery, true)
			if got := countersOf(byValue); got != tc.want {
				t.Errorf("by-value counters = %+v, recorded %+v", got, tc.want)
			}
			if got := countersOf(hashed); got != tc.want {
				t.Errorf("hashed counters = %+v, recorded %+v", got, tc.want)
			}
			for i := range byValue.buckets {
				if byValue.buckets[i] != hashed.buckets[i] {
					t.Fatalf("bucket %d differs: %+v vs %+v", i, byValue.buckets[i], hashed.buckets[i])
				}
			}
		})
	}
}
