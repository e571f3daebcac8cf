package emc

import (
	"testing"

	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/flow"
)

// BenchmarkEMCLookup measures the wall-clock exact-match hit path: one
// hash, one set probe, one full-key compare.
func BenchmarkEMCLookup(b *testing.B) {
	c := New[int](costmodel.EMCEntries, 0)
	const flows = 4096
	keys := make([]flow.Key, flows)
	for i := range keys {
		keys[i] = keyN(i)
		c.Insert(keys[i], i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(keys[i%flows])
	}
}

// BenchmarkEMCInsert measures the steady-state insert (update-in-place of
// a cached flow).
func BenchmarkEMCInsert(b *testing.B) {
	c := New[int](costmodel.EMCEntries, 0)
	const flows = 4096
	keys := make([]flow.Key, flows)
	for i := range keys {
		keys[i] = keyN(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(keys[i%flows], i)
	}
}

// lookupOrInsert is one fast-path pass over the EMC: hash once, probe,
// insert on a miss.
func lookupOrInsert(c *Cache[*hval], k *flow.Key, v *hval) bool {
	h := c.Hash(k)
	if _, ok := c.LookupHashed(k, h); ok {
		return true
	}
	c.InsertHashed(k, h, v)
	return false
}

// BenchmarkEMCLookupThrash is the many-flow regime of the ct, churn and
// p2p_dpcls workloads: 100k keys round-robin over 8192 entries, so every
// probe misses against two resident strangers and every insert evicts.
func BenchmarkEMCLookupThrash(b *testing.B) {
	c := New[*hval](costmodel.EMCEntries, 1)
	c.SetAliveCheck(func(v *hval) bool { return !v.dead })
	const flows = 100_000
	keys := make([]flow.Key, flows)
	for i := range keys {
		keys[i] = keyN(i)
	}
	v := &hval{}
	for i := range keys {
		lookupOrInsert(c, &keys[i], v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookupOrInsert(c, &keys[i%flows], v)
	}
	if c.Hits != 0 {
		b.Fatalf("%d hits: the stream was meant to miss every probe", c.Hits)
	}
}

// BenchmarkEMCLookupHit64 is the p2p_fast regime: 64 resident flows, every
// probe a hit (one tag compare, one key compare, one alive check).
func BenchmarkEMCLookupHit64(b *testing.B) {
	c := New[*hval](costmodel.EMCEntries, 1)
	c.SetAliveCheck(func(v *hval) bool { return !v.dead })
	const flows = 64
	keys := make([]flow.Key, flows)
	v := &hval{}
	for i := range keys {
		keys[i] = keyN(i)
		lookupOrInsert(c, &keys[i], v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !lookupOrInsert(c, &keys[i%flows], v) {
			b.Fatalf("key %d missed", i%flows)
		}
	}
}
