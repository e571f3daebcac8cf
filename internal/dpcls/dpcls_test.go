package dpcls

import (
	"reflect"
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

// tag recovers the tag act gave the action list of the megaflow r names.
func tag(c *Classifier, r Ref) int { return int(c.Actions(c.Get(r))[0].Port) }

// lookup is LookupKey for a key held by value, returning the ref of the
// megaflow found, or zero.
func lookup(c *Classifier, key flow.Key) (Ref, int) {
	_, r, probes := c.LookupKey(&key)
	return r, probes
}

// TestEntryLayout pins what one megaflow costs: a 16-byte header with no
// pointer in it (where it lives is in its ref, the mask is its subtable's,
// the actions an index in the action table), its mask's words in a uint64
// arena and an 8-byte slot.
func TestEntryLayout(t *testing.T) {
	if size := unsafe.Sizeof(Entry{}); size != 16 {
		t.Fatalf("Entry is %d bytes, want 16", size)
	}
	if hasPointers(reflect.TypeFor[Entry]()) {
		t.Fatal("Entry holds a pointer; the collector would scan every megaflow")
	}
	if f, _ := reflect.TypeFor[subtable]().FieldByName("keys"); f.Type.Elem().Elem() != reflect.TypeFor[uint64]() {
		t.Fatalf("the key arena holds %v, want uint64", f.Type.Elem().Elem())
	}
	if size := unsafe.Sizeof(slot{}); size != 8 {
		t.Fatalf("a subtable slot is %d bytes, want 8", size)
	}
	c := New(0)
	mask := flow.NewMaskBuilder().EthType().TPDst().Build()
	ra := c.Insert(keyFor(hdr.MakeIP4(1, 1, 1, 1), 80), mask, act(1))
	rb := c.Insert(keyFor(hdr.MakeIP4(1, 1, 1, 1), 81), mask, act(2))
	if ra.sub() != rb.sub() || c.Mask(ra) != mask {
		t.Fatal("entries of one subtable must share its mask")
	}
	if st := c.byIdx[ra.sub()]; len(st.words) != 2 || len(st.row(ra.pos())) != 2 {
		t.Fatalf("a record of a two-word mask stores %d words", len(st.row(ra.pos())))
	}
}

// hasPointers reports whether a value of typ holds a pointer the collector
// must follow.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Array:
		return typ.Len() > 0 && hasPointers(typ.Elem())
	case reflect.Struct:
		for i := range typ.NumField() {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true
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
	r, probes := lookup(c, keyFor(hdr.MakeIP4(172, 16, 0, 5), 80))
	if r == 0 {
		t.Fatal("wildcarded lookup missed")
	}
	if tag(c, r) != 2 {
		t.Fatalf("actions = %v", c.Actions(c.Get(r)))
	}
	if probes != 1 {
		t.Fatalf("probes = %d, want 1", probes)
	}
	if e := c.Get(r); e.Hits != 1 {
		t.Fatalf("hits = %d", e.Hits)
	}

	// Different dst port: miss.
	if r, _ := lookup(c, keyFor(hdr.MakeIP4(10, 0, 0, 1), 443)); r != 0 {
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
	h, _ := c.Lookup(keyFor(hdr.MakeIP4(10, 0, 0, 9), 80))
	const want = "megaflow{dl_type=0x0800,nw_proto=17,tp_dst=80 hits=1 actions=[dec_ttl out(2)]}"
	if got := c.String(h.Ref); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestMultipleSubtables(t *testing.T) {
	c := New(0)
	mPort := flow.NewMaskBuilder().EthType().IPProto().TPDst().Build()
	mSrc := flow.NewMaskBuilder().EthType().IPProto().IP4Src(24).Build()
	c.Insert(keyFor(hdr.MakeIP4(10, 1, 1, 1), 80), mPort, act(1))
	c.Insert(keyFor(hdr.MakeIP4(10, 2, 2, 2), 0), mSrc, act(2))
	if len(c.subtables) != 2 {
		t.Fatalf("subtables = %d", len(c.subtables))
	}
	if r, _ := lookup(c, keyFor(hdr.MakeIP4(10, 2, 2, 99), 9999)); r == 0 || tag(c, r) != 2 {
		t.Fatalf("subnet lookup = %v", r)
	}
	if r, _ := lookup(c, keyFor(hdr.MakeIP4(192, 168, 0, 1), 80)); r == 0 || tag(c, r) != 1 {
		t.Fatalf("port lookup = %v", r)
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
	if r, _ := lookup(c, k); r == 0 || tag(c, r) != 2 {
		t.Fatalf("lookup = %v", r)
	}
}

func TestRemove(t *testing.T) {
	c := New(0)
	mask := flow.NewMaskBuilder().EthType().TPDst().Build()
	e := c.Insert(keyFor(hdr.MakeIP4(1, 1, 1, 1), 80), mask, act(1))
	if !c.Remove(e) {
		t.Fatal("remove failed")
	}
	if c.Len() != 0 || len(c.subtables) != 0 {
		t.Fatalf("len=%d subtables=%d after remove", c.Len(), len(c.subtables))
	}
	if c.Remove(e) {
		t.Fatal("double remove must report false")
	}
	// Reinserting the same masked key updates the entry in place: the
	// caches' ref stays valid and carries the new actions, so there is no
	// stale ref to mis-remove.
	e1 := c.Insert(keyFor(hdr.MakeIP4(1, 1, 1, 1), 80), mask, act(1))
	e2 := c.Insert(keyFor(hdr.MakeIP4(1, 1, 1, 1), 80), mask, act(2))
	if e1 != e2 {
		t.Fatal("replacement must update the existing entry in place")
	}
	if tag(c, e1) != 2 {
		t.Fatalf("replaced actions = %v, want b", c.Actions(c.Get(e1)))
	}
	if !c.Remove(e1) {
		t.Fatal("remove of replaced entry must succeed")
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d after remove", c.Len())
	}
}

// TestRemoveMarksDead covers the lazy cache-invalidation contract: a ref
// goes stale when its megaflow leaves the classifier (Remove, Flush), stays
// live through an in-place replacement, and stays stale when its record is
// recycled for another megaflow — the caches use Live to decide whether a
// held ref is still valid.
func TestRemoveMarksDead(t *testing.T) {
	c := New(0)
	mask := flow.NewMaskBuilder().EthType().TPDst().Build()
	r := c.Insert(keyFor(hdr.MakeIP4(1, 1, 1, 1), 80), mask, act(1))
	if !c.Live(r) {
		t.Fatal("fresh entry must be alive")
	}
	c.Insert(keyFor(hdr.MakeIP4(1, 1, 1, 1), 80), mask, act(2))
	if !c.Live(r) {
		t.Fatal("in-place replacement must keep the entry alive")
	}
	c.Remove(r)
	if c.Live(r) || c.Get(r) != nil {
		t.Fatal("removed entry must be dead")
	}
	r2 := c.Insert(keyFor(hdr.MakeIP4(2, 2, 2, 2), 443), mask, act(3))
	if uint32(r2) != uint32(r) || r2 == r || c.Live(r) || tag(c, r2) != 3 {
		t.Fatalf("recycled record: old ref %#x, new ref %#x", r, r2)
	}
	c.Flush()
	if c.Live(r2) || c.Live(0) {
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
	if len(c.Refs(nil)) != 5 {
		t.Fatalf("entries = %d", len(c.Refs(nil)))
	}
	c.Flush()
	if c.Len() != 0 || len(c.Refs(nil)) != 0 {
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
	if r, _ := lookup(c, udpKey); r == 0 || tag(c, r) != 17 {
		t.Fatalf("udp lookup = %v", r)
	}
	if r, _ := lookup(c, tcpKey); r == 0 || tag(c, r) != 6 {
		t.Fatalf("tcp lookup = %v", r)
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
		if r, _ := lookup(c, same.Pack()); r == 0 {
			return false
		}
		// Change a masked field: must miss.
		diff := base
		diff.TPDst ^= uint16(flip) | 1
		r, _ := lookup(c, diff.Pack())
		return r == 0
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
	var entries []Ref
	masks := make([]flow.Mask, 16)
	for i := range masks {
		masks[i] = flow.NewMaskBuilder().InPort().EthType().IP4Src(8 + i).Build()
		for j := 0; j < 3; j++ {
			k := keyFor(hdr.MakeIP4(10, byte(i), byte(j), 1), uint16(1000+j))
			entries = append(entries, c.Insert(k, masks[i], act(1)))
		}
	}
	if len(c.subtables) != 16 {
		t.Fatalf("subtables = %d, want 16", len(c.subtables))
	}
	// Removing every entry of a mask must drop its subtable from both the
	// probe order and the index; a later insert under the same mask must
	// create a fresh subtable, not resurrect state.
	for _, e := range entries {
		c.Remove(e)
	}
	if len(c.subtables) != 0 || c.Len() != 0 {
		t.Fatalf("subtables=%d len=%d after removing all", len(c.subtables), c.Len())
	}
	k := keyFor(hdr.MakeIP4(10, 0, 0, 1), 1000)
	e := c.Insert(k, masks[0], act(2))
	if got, _ := lookup(c, k); got != e {
		t.Fatalf("lookup after reinsert = %v, want %v", got, e)
	}
	c.Flush()
	if got := c.Insert(k, masks[0], act(3)); got == 0 {
		t.Fatal("insert after flush failed")
	}
	if len(c.subtables) != 1 {
		t.Fatalf("subtables after flush+insert = %d", len(c.subtables))
	}
}
