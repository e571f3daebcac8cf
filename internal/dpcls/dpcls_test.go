package dpcls

import (
	"testing"
	"testing/quick"
	"unsafe"

	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet/hdr"
)

// act stands in for an action list in these tests, which only need lists
// they can tell apart: one output action whose port is the tag.
func act(tag int) []ofproto.DPAction {
	return []ofproto.DPAction{{Type: ofproto.DPOutput, Port: uint32(tag)}}
}

// tag recovers the tag act gave e's action list.
func tag(e *Entry) int { return int(e.Actions[0].Port) }

// TestEntryLayout pins what one megaflow costs: 144 bytes, no private mask
// copy (every entry of a subtable points at the subtable's mask) and the
// fields a hit touches ahead of the key.
func TestEntryLayout(t *testing.T) {
	var e Entry
	if size := unsafe.Sizeof(e); size > 144 {
		t.Fatalf("Entry is %d bytes, want at most 144", size)
	}
	if off := unsafe.Offsetof(e.MaskedKey); off != 48 {
		t.Fatalf("MaskedKey sits at offset %d, want 48: the hot fields come first", off)
	}
	if e.Mask() != (flow.Mask{}) {
		t.Fatal("an Entry no classifier built must report the zero mask")
	}
	c := New(0)
	mask := flow.NewMaskBuilder().EthType().TPDst().Build()
	a := c.Insert(keyFor(hdr.MakeIP4(1, 1, 1, 1), 80), mask, act(1))
	b := c.Insert(keyFor(hdr.MakeIP4(1, 1, 1, 1), 81), mask, act(2))
	if a.mask != b.mask || a.Mask() != mask {
		t.Fatal("entries of one subtable must share its mask")
	}
}

func keyFor(srcIP hdr.IP4, dstPort uint16) flow.Key {
	return (&flow.Fields{
		EthType: hdr.EtherTypeIPv4,
		IP4Src:  srcIP, IP4Dst: hdr.MakeIP4(10, 0, 0, 2),
		IPProto: hdr.IPProtoUDP, TPDst: dstPort,
	}).Pack()
}

func TestInsertAndLookup(t *testing.T) {
	c := New(0)
	mask := flow.NewMaskBuilder().EthType().IPProto().TPDst().Build()
	k := keyFor(hdr.MakeIP4(10, 0, 0, 1), 80)
	c.Insert(k, mask, act(2))

	// Same dst port, different source: must match the wildcarded entry.
	e, probes := c.Lookup(keyFor(hdr.MakeIP4(172, 16, 0, 5), 80))
	if e == nil {
		t.Fatal("wildcarded lookup missed")
	}
	if tag(e) != 2 {
		t.Fatalf("actions = %v", e.Actions)
	}
	if probes != 1 {
		t.Fatalf("probes = %d, want 1", probes)
	}
	if e.Hits != 1 {
		t.Fatalf("hits = %d", e.Hits)
	}

	// Different dst port: miss.
	if e, _ := c.Lookup(keyFor(hdr.MakeIP4(10, 0, 0, 1), 443)); e != nil {
		t.Fatal("lookup for unmatched port must miss")
	}
}

// TestEntryStringIsFlowText pins how a megaflow prints: its match as the
// flow text ovs.ParseFlow reads, then hits and actions.
func TestEntryStringIsFlowText(t *testing.T) {
	c := New(0)
	mask := flow.NewMaskBuilder().EthType().IPProto().TPDst().Build()
	c.Insert(keyFor(hdr.MakeIP4(10, 0, 0, 1), 80), mask,
		[]ofproto.DPAction{{Type: ofproto.DPDecTTL}, {Type: ofproto.DPOutput, Port: 2}})
	e, _ := c.Lookup(keyFor(hdr.MakeIP4(10, 0, 0, 9), 80))
	const want = "megaflow{dl_type=0x0800,nw_proto=17,tp_dst=80 hits=1 actions=[dec_ttl out(2)]}"
	if got := e.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestMultipleSubtables(t *testing.T) {
	c := New(0)
	mPort := flow.NewMaskBuilder().EthType().IPProto().TPDst().Build()
	mSrc := flow.NewMaskBuilder().EthType().IPProto().IP4Src(24).Build()
	c.Insert(keyFor(hdr.MakeIP4(10, 1, 1, 1), 80), mPort, act(1))
	c.Insert(keyFor(hdr.MakeIP4(10, 2, 2, 2), 0), mSrc, act(2))
	if c.Subtables() != 2 {
		t.Fatalf("subtables = %d", c.Subtables())
	}
	if e, _ := c.Lookup(keyFor(hdr.MakeIP4(10, 2, 2, 99), 9999)); e == nil || tag(e) != 2 {
		t.Fatalf("subnet lookup = %+v", e)
	}
	if e, _ := c.Lookup(keyFor(hdr.MakeIP4(192, 168, 0, 1), 80)); e == nil || tag(e) != 1 {
		t.Fatalf("port lookup = %+v", e)
	}
}

func TestInsertReplacesSameMaskedKey(t *testing.T) {
	c := New(0)
	mask := flow.NewMaskBuilder().EthType().TPDst().Build()
	k := keyFor(hdr.MakeIP4(1, 1, 1, 1), 80)
	c.Insert(k, mask, act(1))
	c.Insert(keyFor(hdr.MakeIP4(2, 2, 2, 2), 80), mask, act(2)) // same masked key
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1 (replaced)", c.Len())
	}
	e, _ := c.Lookup(k)
	if e == nil || tag(e) != 2 {
		t.Fatalf("lookup = %+v", e)
	}
}

func TestRemove(t *testing.T) {
	c := New(0)
	mask := flow.NewMaskBuilder().EthType().TPDst().Build()
	e := c.Insert(keyFor(hdr.MakeIP4(1, 1, 1, 1), 80), mask, act(1))
	if !c.Remove(e) {
		t.Fatal("remove failed")
	}
	if c.Len() != 0 || c.Subtables() != 0 {
		t.Fatalf("len=%d subtables=%d after remove", c.Len(), c.Subtables())
	}
	if c.Remove(e) {
		t.Fatal("double remove must report false")
	}
	// Reinserting the same masked key updates the entry in place: the
	// caches' pointer stays valid and carries the new actions, so there is
	// no stale pointer to mis-remove.
	e1 := c.Insert(keyFor(hdr.MakeIP4(1, 1, 1, 1), 80), mask, act(1))
	e2 := c.Insert(keyFor(hdr.MakeIP4(1, 1, 1, 1), 80), mask, act(2))
	if e1 != e2 {
		t.Fatal("replacement must update the existing entry in place")
	}
	if tag(e1) != 2 {
		t.Fatalf("replaced actions = %v, want b", e1.Actions)
	}
	if !c.Remove(e1) {
		t.Fatal("remove of replaced entry must succeed")
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d after remove", c.Len())
	}
}

// TestRemoveMarksDead covers the lazy cache-invalidation contract: an entry
// leaves the classifier dead (Remove, Flush), and stays alive through an
// in-place replacement — the caches use Dead() to decide whether a held
// pointer is still valid.
func TestRemoveMarksDead(t *testing.T) {
	c := New(0)
	mask := flow.NewMaskBuilder().EthType().TPDst().Build()
	e := c.Insert(keyFor(hdr.MakeIP4(1, 1, 1, 1), 80), mask, act(1))
	if e.Dead() {
		t.Fatal("fresh entry must be alive")
	}
	c.Insert(keyFor(hdr.MakeIP4(1, 1, 1, 1), 80), mask, act(2))
	if e.Dead() {
		t.Fatal("in-place replacement must keep the entry alive")
	}
	c.Remove(e)
	if !e.Dead() {
		t.Fatal("removed entry must be dead")
	}
	e2 := c.Insert(keyFor(hdr.MakeIP4(2, 2, 2, 2), 443), mask, act(3))
	c.Flush()
	if !e2.Dead() {
		t.Fatal("flushed entry must be dead")
	}
}

// TestFlushResetsProbeStats: Flush starts a fresh classifier lifetime, so
// the lookup/probe counters and the resort countdown reset with it.
func TestFlushResetsProbeStats(t *testing.T) {
	c := New(0)
	mask := flow.NewMaskBuilder().EthType().TPDst().Build()
	k := keyFor(hdr.MakeIP4(1, 1, 1, 1), 80)
	c.Insert(k, mask, act(1))
	for i := 0; i < 10; i++ {
		c.Lookup(k)
	}
	if c.Lookups == 0 || c.SubtableProbes == 0 {
		t.Fatal("expected non-zero probe stats before flush")
	}
	c.Flush()
	if c.Lookups != 0 || c.SubtableProbes != 0 {
		t.Fatalf("flush left Lookups=%d SubtableProbes=%d", c.Lookups, c.SubtableProbes)
	}
}

func TestProbeCountGrowsWithSubtables(t *testing.T) {
	c := New(0)
	masks := []flow.Mask{
		flow.NewMaskBuilder().EthType().Build(),
		flow.NewMaskBuilder().EthType().IPProto().Build(),
		flow.NewMaskBuilder().EthType().IPProto().TPSrc().Build(),
		flow.NewMaskBuilder().EthType().IPProto().TPSrc().TPDst().Build(),
	}
	for i, m := range masks {
		k := (&flow.Fields{EthType: hdr.EtherTypeIPv6, IPProto: hdr.IPProtoTCP,
			TPSrc: uint16(i + 1), TPDst: uint16(i + 100)}).Pack()
		c.Insert(k, m, act(i))
	}
	// A missing key probes all subtables.
	_, probes := c.Lookup(keyFor(hdr.MakeIP4(9, 9, 9, 9), 9))
	if probes != len(masks) {
		t.Fatalf("miss probes = %d, want %d", probes, len(masks))
	}
}

func TestUsageBasedResort(t *testing.T) {
	c := New(0)
	// Subtable A installed first, subtable B second; then B gets all the
	// traffic. After the resort interval, B must be probed first.
	mA := flow.NewMaskBuilder().EthType().TPSrc().Build()
	mB := flow.NewMaskBuilder().EthType().TPDst().Build()
	kA := (&flow.Fields{EthType: hdr.EtherTypeIPv4, TPSrc: 7}).Pack()
	kB := (&flow.Fields{EthType: hdr.EtherTypeIPv4, TPDst: 80}).Pack()
	c.Insert(kA, mA, act(1))
	c.Insert(kB, mB, act(2))

	// Burn through more than resortInterval lookups on B.
	for i := 0; i < resortInterval+10; i++ {
		c.Lookup(kB)
	}
	_, probes := c.Lookup(kB)
	if probes != 1 {
		t.Fatalf("hot subtable should be probed first, probes = %d", probes)
	}
}

func TestFlushAndEntries(t *testing.T) {
	c := New(0)
	mask := flow.NewMaskBuilder().EthType().TPDst().Build()
	for i := 0; i < 5; i++ {
		c.Insert(keyFor(hdr.MakeIP4(1, 1, 1, 1), uint16(i)), mask, act(i))
	}
	if len(c.Entries()) != 5 {
		t.Fatalf("entries = %d", len(c.Entries()))
	}
	c.Flush()
	if c.Len() != 0 || len(c.Entries()) != 0 {
		t.Fatal("flush incomplete")
	}
}

func TestDisjointMegaflowsFirstMatchWins(t *testing.T) {
	// Megaflows from translation are disjoint: a packet matches exactly
	// one. Verify a key matching subtable 2 is untouched by subtable 1.
	c := New(0)
	mTCP := flow.NewMaskBuilder().EthType().IPProto().TPDst().Build()
	mUDP := flow.NewMaskBuilder().EthType().IPProto().TPSrc().Build()
	tcpKey := (&flow.Fields{EthType: hdr.EtherTypeIPv4, IPProto: hdr.IPProtoTCP, TPDst: 22}).Pack()
	udpKey := (&flow.Fields{EthType: hdr.EtherTypeIPv4, IPProto: hdr.IPProtoUDP, TPSrc: 53}).Pack()
	c.Insert(tcpKey, mTCP, act(6))
	c.Insert(udpKey, mUDP, act(17))
	if e, _ := c.Lookup(udpKey); e == nil || tag(e) != 17 {
		t.Fatalf("udp lookup = %+v", e)
	}
	if e, _ := c.Lookup(tcpKey); e == nil || tag(e) != 6 {
		t.Fatalf("tcp lookup = %+v", e)
	}
}

func BenchmarkLookup1Subtable(b *testing.B) {
	c := New(0)
	mask := flow.NewMaskBuilder().EthType().IPProto().TPDst().Build()
	k := keyFor(hdr.MakeIP4(10, 0, 0, 1), 80)
	c.Insert(k, mask, act(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Lookup(k)
	}
}

func BenchmarkLookup8Subtables(b *testing.B) {
	c := New(0)
	builders := []*flow.MaskBuilder{
		flow.NewMaskBuilder().EthType(),
		flow.NewMaskBuilder().EthType().IPProto(),
		flow.NewMaskBuilder().EthType().IPProto().TPSrc(),
		flow.NewMaskBuilder().EthType().IPProto().TPDst(),
		flow.NewMaskBuilder().EthType().IP4Src(24),
		flow.NewMaskBuilder().EthType().IP4Dst(24),
		flow.NewMaskBuilder().EthType().IP4Src(32).IP4Dst(32),
		flow.NewMaskBuilder().EthType().IPProto().TPSrc().TPDst(),
	}
	for i, mb := range builders {
		k := (&flow.Fields{EthType: hdr.EtherTypeIPv6, IPProto: hdr.IPProtoTCP, TPSrc: uint16(i + 1)}).Pack()
		c.Insert(k, mb.Build(), act(i))
	}
	// Lookup key that matches the last subtable most of the time.
	k := keyFor(hdr.MakeIP4(10, 0, 0, 1), 80)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Lookup(k)
	}
}

func TestInsertLookupProperty(t *testing.T) {
	// Property: any inserted key is found by a lookup of any key equal to
	// it under the mask, and missed by keys differing inside the mask.
	f := func(srcIP, dstIP uint32, sport, dport uint16, flip uint8) bool {
		c := New(0)
		mask := flow.NewMaskBuilder().EthType().IPProto().IP4Src(32).TPDst().Build()
		base := flow.Fields{
			EthType: hdr.EtherTypeIPv4, IPProto: hdr.IPProtoTCP,
			IP4Src: hdr.IP4(srcIP), IP4Dst: hdr.IP4(dstIP),
			TPSrc: sport, TPDst: dport,
		}
		c.Insert(base.Pack(), mask, act(1))

		// Same masked fields, different unmasked fields: must hit.
		same := base
		same.IP4Dst ^= 0xffff
		same.TPSrc ^= 0x5555
		if e, _ := c.Lookup(same.Pack()); e == nil {
			return false
		}
		// Change a masked field: must miss.
		diff := base
		diff.TPDst ^= uint16(flip) | 1
		e, _ := c.Lookup(diff.Pack())
		return e == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMaskIndexConsistency exercises the byMask index through the full
// subtable lifecycle: insert under many masks, remove until subtables drop,
// re-insert a dropped mask, and flush — the slice and the index must agree
// throughout.
func TestMaskIndexConsistency(t *testing.T) {
	c := New(0)
	var entries []*Entry
	masks := make([]flow.Mask, 16)
	for i := range masks {
		masks[i] = flow.NewMaskBuilder().InPort().EthType().IP4Src(8 + i).Build()
		for j := 0; j < 3; j++ {
			k := keyFor(hdr.MakeIP4(10, byte(i), byte(j), 1), uint16(1000+j))
			entries = append(entries, c.Insert(k, masks[i], act(1)))
		}
	}
	if c.Subtables() != 16 {
		t.Fatalf("subtables = %d, want 16", c.Subtables())
	}
	// Removing every entry of a mask must drop its subtable from both the
	// probe order and the index; a later insert under the same mask must
	// create a fresh subtable, not resurrect state.
	for _, e := range entries {
		c.Remove(e)
	}
	if c.Subtables() != 0 || c.Len() != 0 {
		t.Fatalf("subtables=%d len=%d after removing all", c.Subtables(), c.Len())
	}
	k := keyFor(hdr.MakeIP4(10, 0, 0, 1), 1000)
	e := c.Insert(k, masks[0], act(2))
	if got, _ := c.Lookup(k); got != e {
		t.Fatalf("lookup after reinsert = %v, want %v", got, e)
	}
	c.Flush()
	if got := c.Insert(k, masks[0], act(3)); got == nil {
		t.Fatal("insert after flush failed")
	}
	if c.Subtables() != 1 {
		t.Fatalf("subtables after flush+insert = %d", c.Subtables())
	}
}
