package smc

import (
	"testing"

	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/packet/hdr"
)

func keyN(i int) flow.Key {
	f := flow.Fields{
		InPort:  1,
		EthType: hdr.EtherTypeIPv4,
		IP4Src:  hdr.IP4(0x0a000000 + uint32(i)),
		IP4Dst:  hdr.MakeIP4(10, 0, 0, 2),
		IPProto: hdr.IPProtoUDP,
		TPSrc:   uint16(i), TPDst: 80,
	}
	return f.Pack()
}

// megaflowFor installs a megaflow covering key in cls and returns the entry.
func megaflowFor(cls *dpcls.Classifier, key flow.Key, mask flow.Mask) *dpcls.Entry {
	return cls.Insert(key, mask, nil)
}

func wideMask() flow.Mask {
	return flow.NewMaskBuilder().InPort().Build()
}

func TestLookupMissThenHit(t *testing.T) {
	cls := dpcls.New(0)
	c := New(64, 0)
	k := keyN(1)
	if _, ok := c.Lookup(k); ok {
		t.Fatal("empty cache must miss")
	}
	e := megaflowFor(cls, k, flow.MaskAll())
	c.Insert(k, e)
	got, ok := c.Lookup(k)
	if !ok || got != e {
		t.Fatalf("lookup = %v,%v, want %v", got, ok, e)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("stats hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestWildcardedMegaflowServesManyKeys(t *testing.T) {
	cls := dpcls.New(0)
	c := New(1024, 0)
	// One InPort-wildcard megaflow handles every key; each key caches its
	// own signature but all indices resolve to the same entry.
	e := megaflowFor(cls, keyN(0), wideMask())
	for i := 0; i < 100; i++ {
		c.Insert(keyN(i), e)
	}
	for i := 0; i < 100; i++ {
		got, ok := c.Lookup(keyN(i))
		if !ok || got != e {
			t.Fatalf("key %d: lookup = %v,%v", i, got, ok)
		}
	}
	if len(c.index) != 1 {
		t.Fatalf("flow count = %d, want 1 (shared indirection slot)", len(c.index))
	}
}

func TestInvalidateStaleIndexMisses(t *testing.T) {
	cls := dpcls.New(0)
	c := New(64, 0)
	k := keyN(1)
	e := megaflowFor(cls, k, flow.MaskAll())
	c.Insert(k, e)
	cls.Remove(e)
	c.Invalidate(e)
	if _, ok := c.Lookup(k); ok {
		t.Fatal("stale signature must miss after invalidation")
	}
	if c.StaleSkips == 0 {
		t.Fatal("stale probe not counted")
	}
	// Invalidating an unknown entry is a no-op.
	c.Invalidate(&dpcls.Entry{})
}

// TestRecycledIndexNeverMisdelivers is the core SMC safety property: after a
// megaflow is removed and its 16-bit index recycled for a different
// megaflow, an old signature still pointing at that index must either miss
// or match legitimately — never deliver the old flow's packets to the new
// megaflow's actions.
func TestRecycledIndexNeverMisdelivers(t *testing.T) {
	cls := dpcls.New(0)
	c := New(64, 0)
	kA, kB := keyN(1), keyN(2)
	eA := megaflowFor(cls, kA, flow.MaskAll())
	c.Insert(kA, eA)
	cls.Remove(eA)
	c.Invalidate(eA)
	// eB recycles eA's indirection index but matches only kB exactly.
	eB := megaflowFor(cls, kB, flow.MaskAll())
	c.Insert(kB, eB)
	if got, ok := c.Lookup(kA); ok {
		t.Fatalf("stale signature for removed megaflow resolved to %v", got)
	}
	if got, ok := c.Lookup(kB); !ok || got != eB {
		t.Fatalf("recycled index lost the new megaflow: %v,%v", got, ok)
	}
}

func TestVerificationRejectsSignatureCollision(t *testing.T) {
	cls := dpcls.New(0)
	// A single-bucket cache forces every key into one set, so any two keys
	// with equal upper-16 hash bits collide on signature.
	c := New(Ways, 0)
	base := keyN(0)
	sig := uint16(base.Hash(0) >> 16)
	collider := flow.Key{}
	found := false
	for i := 1; i < 1<<20 && !found; i++ {
		k := keyN(i)
		if uint16(k.Hash(0)>>16) == sig {
			collider, found = k, true
		}
	}
	if !found {
		t.Skip("no signature collision found in search range")
	}
	// The cached megaflow matches base exactly; the colliding key must be
	// rejected by verification, not delivered.
	e := megaflowFor(cls, base, flow.MaskAll())
	c.Insert(base, e)
	if got, ok := c.Lookup(collider); ok {
		t.Fatalf("signature collision mis-delivered %v", got)
	}
	if c.StaleSkips == 0 {
		t.Fatal("collision probe not counted as stale skip")
	}
}

func TestFlushEmptiesEverything(t *testing.T) {
	cls := dpcls.New(0)
	c := New(64, 0)
	for i := 0; i < 10; i++ {
		c.Insert(keyN(i), megaflowFor(cls, keyN(i), flow.MaskAll()))
	}
	c.Flush()
	if c.Len() != 0 || len(c.index) != 0 {
		t.Fatalf("len=%d flows=%d after flush", c.Len(), len(c.index))
	}
	if _, ok := c.Lookup(keyN(0)); ok {
		t.Fatal("flushed cache must miss")
	}
}

func TestEvictionUnderPressure(t *testing.T) {
	cls := dpcls.New(0)
	c := New(8, 0) // 2 buckets x 4 ways
	e := megaflowFor(cls, keyN(0), wideMask())
	for i := 0; i < 1000; i++ {
		c.Insert(keyN(i), e)
	}
	if c.Len() > len(c.buckets)*Ways {
		t.Fatalf("len %d exceeds capacity %d", c.Len(), len(c.buckets)*Ways)
	}
	if c.Evictions == 0 {
		t.Fatal("pressure must evict")
	}
}

func TestIndexSpaceExhaustion(t *testing.T) {
	cls := dpcls.New(0)
	c := New(1<<18, 0)
	// Fill the 16-bit index space with distinct megaflows, then one more.
	for i := 0; i < maxIndex; i++ {
		c.Insert(keyN(i), megaflowFor(cls, keyN(i), flow.MaskAll()))
	}
	if c.Uncacheable != 0 {
		t.Fatalf("uncacheable = %d before exhaustion", c.Uncacheable)
	}
	c.Insert(keyN(maxIndex), megaflowFor(cls, keyN(maxIndex), flow.MaskAll()))
	if c.Uncacheable != 1 {
		t.Fatalf("uncacheable = %d, want 1", c.Uncacheable)
	}
	// Invalidation recycles an index, making room again.
	victim := keyN(3)
	ve, _ := cls.Lookup(victim)
	c.Invalidate(ve)
	c.Insert(keyN(maxIndex), megaflowFor(cls, keyN(maxIndex+1), flow.MaskAll()))
	if c.Uncacheable != 1 {
		t.Fatalf("recycled index not reused: uncacheable = %d", c.Uncacheable)
	}
}
