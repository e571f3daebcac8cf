package emc

import (
	"runtime"
	"testing"
	"unsafe"

	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/packet/hdr"
)

func keyN(i int) flow.Key {
	f := flow.Fields{
		EthType: hdr.EtherTypeIPv4,
		IP4Src:  hdr.IP4(0x0a000000 + uint32(i)),
		IP4Dst:  hdr.MakeIP4(10, 0, 0, 2),
		IPProto: hdr.IPProtoUDP,
		TPSrc:   uint16(i), TPDst: 80,
	}
	return f.Pack()
}

func TestLookupMissThenHit(t *testing.T) {
	c := New[int](64, 0)
	k := keyN(1)
	if _, ok := c.Lookup(k); ok {
		t.Fatal("empty cache must miss")
	}
	c.Insert(k, 42)
	v, ok := c.Lookup(k)
	if !ok || v != 42 {
		t.Fatalf("lookup = %d,%v", v, ok)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("stats hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestInsertSameKeyUpdates(t *testing.T) {
	c := New[int](64, 0)
	k := keyN(1)
	c.Insert(k, 1)
	c.Insert(k, 2)
	if v, _ := c.Lookup(k); v != 2 {
		t.Fatalf("update failed: %d", v)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

func TestFlush(t *testing.T) {
	c := New[int](64, 0)
	for i := 0; i < 10; i++ {
		c.Insert(keyN(i), i)
	}
	c.Flush()
	if c.Len() != 0 {
		t.Fatalf("len after flush = %d", c.Len())
	}
}

func TestEvictionUnderPressure(t *testing.T) {
	c := New[int](8, 0) // 4 sets x 2 ways
	for i := 0; i < 100; i++ {
		c.Insert(keyN(i), i)
	}
	if c.Len() > len(c.ways)*Ways {
		t.Fatalf("len %d exceeds capacity %d", c.Len(), len(c.ways)*Ways)
	}
	if c.Evictions == 0 {
		t.Fatal("pressure must evict")
	}
}

func TestTwoWaysPerSetSurvive(t *testing.T) {
	// Two keys landing in the same set must coexist (2-way).
	c := New[int](2, 0) // a single set with 2 ways
	c.Insert(keyN(1), 1)
	c.Insert(keyN(2), 2)
	_, ok1 := c.Lookup(keyN(1))
	_, ok2 := c.Lookup(keyN(2))
	if !ok1 || !ok2 {
		t.Fatal("both ways of a set must be usable")
	}
}

func TestCapacityRounding(t *testing.T) {
	c := New[int](1000, 0)
	if len(c.ways)*Ways < 1000 {
		t.Fatalf("capacity %d < requested 1000", len(c.ways)*Ways)
	}
	if len(c.ways)*Ways%Ways != 0 {
		t.Fatal("capacity must be a multiple of the ways")
	}
}

func TestThousandFlowsMostlyFit(t *testing.T) {
	// The paper's 1,000-flow workload against the default 8192-entry EMC:
	// most flows should be cache-resident (conflict misses only).
	c := New[int](costmodel.EMCEntries, 0)
	for i := 0; i < 1000; i++ {
		c.Insert(keyN(i), i)
	}
	resident := 0
	for i := 0; i < 1000; i++ {
		if _, ok := c.Lookup(keyN(i)); ok {
			resident++
		}
	}
	if resident < 950 {
		t.Fatalf("only %d/1000 flows resident; expected nearly all", resident)
	}
}

// victimWay reports which way key's hash selects for eviction, mirroring
// Insert's replacement policy.
func victimWay(k flow.Key, basis uint32) int {
	return int((k.Hash(basis) >> 16) % Ways)
}

// Regression: eviction victims used to come from a single cache-global
// rotor, so every set evicted the same way in lockstep and an alternating
// insert pattern deterministically thrashed a hot entry. With hash-derived
// victims, churn keys that map to one way leave the other way's entry
// resident.
func TestEvictionHotEntrySurvivesChurn(t *testing.T) {
	const basis = 0
	c := New[int](Ways, basis) // single set: every key collides

	// Find two churn keys whose hash picks the same victim way, and a hot
	// key + filler to occupy the ways (free ways fill in order 0, 1).
	var churn []flow.Key
	w := -1
	for i := 100; i < 400 && len(churn) < 2; i++ {
		k := keyN(i)
		if w == -1 {
			w = victimWay(k, basis)
			churn = append(churn, k)
		} else if victimWay(k, basis) == w {
			churn = append(churn, k)
		}
	}
	hot := keyN(1)
	filler := keyN(2)
	if w == 0 {
		// Churn evicts way 0: put the filler there, the hot key in way 1.
		c.Insert(filler, 0)
		c.Insert(hot, 1)
	} else {
		c.Insert(hot, 1)
		c.Insert(filler, 0)
	}

	for i := 0; i < 64; i++ {
		c.Insert(churn[i%2], i)
	}
	if _, ok := c.Lookup(hot); !ok {
		t.Fatal("hot entry thrashed by churn keys that hash to the other way")
	}
}

// Eviction victims must spread across both ways rather than always hitting
// the same one: over many keys, each way should take a healthy share.
func TestEvictionVictimsSpreadAcrossWays(t *testing.T) {
	const basis = 0x9e37
	counts := [Ways]int{}
	for i := 0; i < 512; i++ {
		counts[victimWay(keyN(i), basis)]++
	}
	for way, n := range counts {
		if n < 512/(Ways*4) {
			t.Fatalf("way %d chosen only %d/512 times; victims not spread (counts %v)", way, n, counts)
		}
	}

	// And behaviorally: churning one full single-set cache with distinct
	// keys must, over time, evict occupants of both ways.
	c := New[int](Ways, basis)
	c.Insert(keyN(1000), 0) // way 0
	c.Insert(keyN(1001), 1) // way 1
	evictedWay := [Ways]bool{}
	for i := 0; i < 64; i++ {
		k := keyN(2000 + i)
		c.Insert(k, i)
		evictedWay[victimWay(k, basis)] = true
		if evictedWay[0] && evictedWay[1] {
			break
		}
	}
	if !evictedWay[0] || !evictedWay[1] {
		t.Fatalf("64 churn keys never evicted both ways: %v", evictedWay)
	}
	if c.Evictions == 0 {
		t.Fatal("churn must count evictions")
	}
}

func BenchmarkLookupHit(b *testing.B) {
	c := New[int](costmodel.EMCEntries, 0)
	k := keyN(7)
	c.Insert(k, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Lookup(k)
	}
}

// TestAliveCheckPurgesOnLookup: an entry whose value fails the registered
// alive check is purged at lookup time and reported as a miss, while live
// entries are untouched — OVS's emc_entry_alive discipline, which is what
// makes megaflow deletion O(1) for the EMC.
func TestAliveCheckPurgesOnLookup(t *testing.T) {
	c := New[*int](64, 0)
	c.SetAliveCheck(func(v *int) bool { return v != nil && *v != 0 })
	liveV, deadV := 7, 7
	k1, k2 := keyN(1), keyN(2)
	c.Insert(k1, &liveV)
	c.Insert(k2, &deadV)
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}

	deadV = 0 // k2's megaflow dies
	if _, ok := c.Lookup(k2); ok {
		t.Fatal("dead entry must miss")
	}
	if c.StalePurged != 1 {
		t.Fatalf("StalePurged = %d, want 1", c.StalePurged)
	}
	if c.Len() != 1 {
		t.Fatalf("len after purge = %d, want 1", c.Len())
	}
	if v, ok := c.Lookup(k1); !ok || *v != 7 {
		t.Fatalf("live entry affected by unrelated purge: %v, %v", v, ok)
	}

	// The purged key is insertable again and hits with the new value.
	fresh := 9
	c.Insert(k2, &fresh)
	if v, ok := c.Lookup(k2); !ok || *v != 9 {
		t.Fatalf("reinsert after purge = %v, %v", v, ok)
	}
}

// TestAliveCheckReclaimsSlotOnInsert: inserting into a set whose ways hold
// a dead value reclaims that slot instead of evicting a live entry, and the
// live count stays consistent.
func TestAliveCheckReclaimsSlotOnInsert(t *testing.T) {
	c := New[*int](Ways, 0) // single set: every key collides
	c.SetAliveCheck(func(v *int) bool { return v != nil && *v != 0 })
	a, b := 1, 1
	c.Insert(keyN(1), &a)
	c.Insert(keyN(2), &b) // set is now full
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}

	a = 0 // first flow dies; its slot is reclaimable
	fresh := 5
	c.Insert(keyN(3), &fresh)
	if c.Evictions != 0 {
		t.Fatalf("insert evicted a live entry instead of reclaiming the dead slot (evictions=%d)", c.Evictions)
	}
	if c.StalePurged != 1 {
		t.Fatalf("StalePurged = %d, want 1", c.StalePurged)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2 (dead slot swapped for live)", c.Len())
	}
	if v, ok := c.Lookup(keyN(3)); !ok || *v != 5 {
		t.Fatalf("reclaimed-slot entry = %v, %v", v, ok)
	}
	if v, ok := c.Lookup(keyN(2)); !ok || *v != 1 {
		t.Fatalf("live entry lost: %v, %v", v, ok)
	}
}

// liveHeap returns the live heap after a collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestEMCHoldsItsWorkingSet: a cache costs its probe side plus the keys of
// the ways it has filled. A fresh 8,192-entry cache holds its 128 KiB of
// ways and no key; 64 flows add one 64-key slab; a flush keeps every way's
// slot, so the same flows coming back add none; and thrashing fills every
// way exactly once, however many keys pass.
func TestEMCHoldsItsWorkingSet(t *testing.T) {
	const caches = 16
	before := liveHeap()
	cs := make([]*Cache[dpcls.Ref], caches)
	for i := range cs {
		cs[i] = New[dpcls.Ref](costmodel.EMCEntries, uint32(i))
	}
	fresh := liveHeap()
	if per := (fresh - before) / caches; per >= 132<<10 {
		t.Fatalf("a fresh %d-entry cache holds %d B, want under 132 KiB", costmodel.EMCEntries, per)
	}
	for _, c := range cs {
		for i := range 64 {
			c.Insert(keyN(i), dpcls.Ref(i+1))
		}
	}
	filled := liveHeap()
	runtime.KeepAlive(cs)
	if per := (filled - fresh) / caches; per > int64(slabStart*unsafe.Sizeof(flow.Key{}))+512 {
		t.Fatalf("64 flows added %d B to a cache, want one %d-key slab", per, slabStart)
	}
	t.Logf("fresh cache %d B, 64 flows add %d B", (fresh-before)/caches, (filled-fresh)/caches)
	for i, c := range cs {
		if cap(c.slab) != slabStart || len(c.slab) != 64-int(c.Evictions) {
			t.Fatalf("cache %d: slab of %d keys (cap %d) after 64 flows and %d evictions", i, len(c.slab), cap(c.slab), c.Evictions)
		}
		n := len(c.slab)
		c.Flush()
		for i := range 64 {
			c.Insert(keyN(i), dpcls.Ref(i+1))
		}
		if len(c.slab) != n || cap(c.slab) != slabStart {
			t.Fatalf("flush and the same 64 flows: slab of %d keys (cap %d), want %d (cap %d)", len(c.slab), cap(c.slab), n, slabStart)
		}
	}
	c := cs[0]
	for i := range 100_000 {
		c.Insert(keyN(i), dpcls.Ref(i+1))
	}
	if len(c.slab) != costmodel.EMCEntries || cap(c.slab) != costmodel.EMCEntries {
		t.Fatalf("a 100k-key thrash left a slab of %d keys (cap %d), want %d", len(c.slab), cap(c.slab), costmodel.EMCEntries)
	}
}
