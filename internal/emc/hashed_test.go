package emc

import (
	"testing"

	"ovsxdp/internal/costmodel"
)

type hval struct{ dead bool }

// hashReuseSteps is the length of the key stream the hash-reuse tests replay.
const hashReuseSteps = 50000

// replayStream drives c the way the datapath does — look the key up, insert
// it on a miss — over a stream in which every other step revisits the key of
// 51 steps earlier. With deadEvery > 0 the current key's value is killed
// every deadEvery steps, so the alive check purges on lookup and reclaims on
// insert. hashed selects the entry points that take a precomputed hash.
func replayStream(c *Cache[*hval], keys, deadEvery int, hashed bool) {
	c.SetAliveCheck(func(v *hval) bool { return !v.dead })
	vals := make([]*hval, keys)
	for i := 0; i < hashReuseSteps; i++ {
		n := i * 7919 % keys
		if i%2 == 1 && i > 51 {
			n = (i - 51) * 7919 % keys
		}
		if deadEvery > 0 && i%deadEvery == 0 && vals[n] != nil {
			vals[n].dead = true
			vals[n] = nil
		}
		if vals[n] == nil {
			vals[n] = &hval{}
		}
		k := keyN(n)
		if hashed {
			h := c.Hash(&k)
			if _, ok := c.LookupHashed(&k, h); !ok {
				c.InsertHashed(&k, h, vals[n])
			}
		} else if _, ok := c.Lookup(k); !ok {
			c.Insert(k, vals[n])
		}
	}
}

type emcCounters struct {
	Hits, Misses, Inserts, Evictions, StalePurged uint64
	Len                                           int
}

func countersOf(c *Cache[*hval]) emcCounters {
	return emcCounters{c.Hits, c.Misses, c.Inserts, c.Evictions, c.StalePurged, c.Len()}
}

// TestHashReuseLeavesEMCUnchanged: hashing a key once and handing the hash to
// the lookup and to the insert (which also takes its victim way from it)
// leaves every counter and every slot where the by-value calls leave them.
// The want column was recorded from the by-value calls before the hashed
// entry points existed: set placement decides emc.hit_ratio, a virtual-clock
// output, so a changed hash value must fail here.
func TestHashReuseLeavesEMCUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name            string
		basis           uint32
		keys, deadEvery int
		want            emcCounters
	}{
		{"mostly-fits", 1, 4000, 0, emcCounters{46337, 3663, 3663, 1713, 0, 1950}},
		{"evicts", 0x9e37 + 1, 50000, 0, emcCounters{24857, 25143, 25143, 17043, 0, 8100}},
		{"alive-check-purges", 1, 50000, 7, emcCounters{21289, 28711, 28711, 17045, 3545, 8121}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			byValue, hashed := New[*hval](costmodel.EMCEntries, tc.basis), New[*hval](costmodel.EMCEntries, tc.basis)
			replayStream(byValue, tc.keys, tc.deadEvery, false)
			replayStream(hashed, tc.keys, tc.deadEvery, true)
			if got := countersOf(byValue); got != tc.want {
				t.Errorf("by-value counters = %+v, recorded %+v", got, tc.want)
			}
			if got := countersOf(hashed); got != tc.want {
				t.Errorf("hashed counters = %+v, recorded %+v", got, tc.want)
			}
			for i := range byValue.ways {
				for w := range byValue.ways[i] {
					a, b := byValue.ways[i][w], hashed.ways[i][w]
					if a.tag != b.tag || byValue.keys[i][w] != hashed.keys[i][w] || (a.tag != 0 && a.value.dead != b.value.dead) {
						t.Fatalf("set %d way %d differs: %+v vs %+v", i, w, a, b)
					}
				}
			}
		})
	}
}
