package dpcls

import (
	"testing"

	"ovsxdp/internal/flow"
	"ovsxdp/internal/packet/hdr"
)

// benchActions is the one action list every benchmark megaflow shares.
var benchActions = act(1)

func benchKey(i int) flow.Key {
	f := flow.Fields{
		InPort:  1,
		EthType: hdr.EtherTypeIPv4,
		IP4Src:  hdr.IP4(0x0a000000 + uint32(i)),
		IP4Dst:  hdr.MakeIP4(10, 1, 0, 2),
		IPProto: hdr.IPProtoUDP,
		TPSrc:   uint16(i), TPDst: 80,
	}
	return f.Pack()
}

// benchMasks builds n distinct masks (increasing IPv4 dst prefix lengths),
// so each installs its own subtable.
func benchMasks(n int) []flow.Mask {
	masks := make([]flow.Mask, n)
	for i := range masks {
		masks[i] = flow.NewMaskBuilder().InPort().EthType().IP4Dst(8 + i).Build()
	}
	return masks
}

// BenchmarkDpclsLookup measures a tuple-space lookup across 8 subtables,
// the wall-clock analog of the DpclsLookupPerSubtable virtual cost.
func BenchmarkDpclsLookup(b *testing.B) {
	c := New(0)
	masks := benchMasks(8)
	keys := make([]flow.Key, 1024)
	for i := range keys {
		keys[i] = benchKey(i)
		c.Insert(keys[i], masks[i%len(masks)], benchActions)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(keys[i%len(keys)])
	}
}

// BenchmarkDpclsInsert measures installing megaflows under many distinct
// masks — the path the byMask index keeps O(1) per insert.
func BenchmarkDpclsInsert(b *testing.B) {
	masks := benchMasks(24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New(0)
		for j, m := range masks {
			c.Insert(benchKey(j), m, benchActions)
		}
	}
}

// churnShape mirrors the benchmark's churn workload at its working-set size:
// n megaflows over two masks, the second adding the source port to the
// first, with odd flows stopping at the first subtable and even flows
// falling through to the second. At 100k entries neither the slot arrays nor
// the entries fit in L2, which the 1024-key benchmark above does not show.
func churnShape(n int) (*Classifier, []flow.Key, [2]flow.Mask) {
	base := flow.NewMaskBuilder().InPort().EthType().IPProto().IP4Src(32).IP4Dst(32).TPDst()
	masks := [2]flow.Mask{base.Build(), base.TPSrc().Build()}
	c := New(7)
	keys := make([]flow.Key, n)
	for i := range keys {
		keys[i] = benchKey(i)
		c.Insert(keys[i], masks[(i+1)%2], benchActions)
	}
	return c, keys, masks
}

const churnFlows = 100_000

var benchSink *Entry

func BenchmarkDpclsLookupHit100k(b *testing.B) {
	c, keys, _ := churnShape(churnFlows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _, _ = c.LookupKey(&keys[i*7919%churnFlows])
	}
}

// BenchmarkDpclsLookupGet100k resolves the ref a lookup returned, the way
// an EMC hit's alive check and hit count resolve the ref the EMC holds: Get
// reads the header at the ref's position and compares its stamp.
func BenchmarkDpclsLookupGet100k(b *testing.B) {
	c, keys, _ := churnShape(churnFlows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, r, _ := c.LookupKey(&keys[i*7919%churnFlows])
		benchSink = c.Get(r)
	}
}

// BenchmarkDpclsLookupMiss100k looks up keys no megaflow covers: every
// subtable is probed, the cost an upcall pays before translation.
func BenchmarkDpclsLookupMiss100k(b *testing.B) {
	c, keys, _ := churnShape(churnFlows)
	for i := range keys {
		keys[i][0] = 99 << 32 // an input port nothing is installed for
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _, _ = c.LookupKey(&keys[i*7919%churnFlows])
	}
}

// BenchmarkClassifierInstallRemove installs a fresh key under a resident
// mask and evicts it, beside 100k resident megaflows — the pair churn pays
// per new flow. B/op is what one install leaves on the heap: nothing, since
// the removed record is the next install's (the action list is the
// translator's, shared here).
func BenchmarkClassifierInstallRemove(b *testing.B) {
	c, keys, masks := churnShape(churnFlows)
	for i := range keys {
		keys[i][0] = 99 << 32
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Remove(c.Insert(keys[i*7919%churnFlows], masks[i%2], benchActions))
	}
}
