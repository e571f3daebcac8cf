package ofproto

import (
	"testing"

	"ovsxdp/internal/flow"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/tunnel"
)

var (
	macA = hdr.MAC{0x02, 0, 0, 0, 0, 0x0a}
	macB = hdr.MAC{0x02, 0, 0, 0, 0, 0x0b}
)

func keyWith(port uint32, dstPort uint16) flow.Key {
	return (&flow.Fields{
		InPort: port, EthSrc: macA, EthDst: macB, EthType: hdr.EtherTypeIPv4,
		IP4Src: hdr.MakeIP4(10, 0, 0, 1), IP4Dst: hdr.MakeIP4(10, 0, 0, 2),
		IPProto: hdr.IPProtoTCP, TPDst: dstPort,
	}).Pack()
}

func TestTablePriorityWins(t *testing.T) {
	tbl := NewTable(0)
	mWide := flow.NewMaskBuilder().EthType().Build()
	mNarrow := flow.NewMaskBuilder().EthType().IPProto().TPDst().Build()
	tbl.Insert(&Rule{Priority: 10, Match: NewMatch(flow.Fields{EthType: hdr.EtherTypeIPv4}, mWide),
		Actions: []Action{Output(1)}})
	tbl.Insert(&Rule{Priority: 100, Match: NewMatch(flow.Fields{EthType: hdr.EtherTypeIPv4,
		IPProto: hdr.IPProtoTCP, TPDst: 22}, mNarrow), Actions: []Action{Drop()}})

	r, _, _ := tbl.Lookup(keyWith(1, 22))
	if r == nil || r.Priority != 100 {
		t.Fatalf("ssh key matched %+v", r)
	}
	r, _, _ = tbl.Lookup(keyWith(1, 80))
	if r == nil || r.Priority != 10 {
		t.Fatalf("http key matched %+v", r)
	}
	if tbl.Len() != 2 || tbl.DistinctMasks() != 2 {
		t.Fatalf("len=%d masks=%d", tbl.Len(), tbl.DistinctMasks())
	}
}

func TestTableEarlyExitByPriority(t *testing.T) {
	tbl := NewTable(0)
	// High-priority subtable matches; the low-priority one must not be
	// probed.
	hi := flow.NewMaskBuilder().InPort().Build()
	lo := flow.NewMaskBuilder().EthType().Build()
	tbl.Insert(&Rule{Priority: 100, Match: NewMatch(flow.Fields{InPort: 1}, hi), Actions: []Action{Output(2)}})
	tbl.Insert(&Rule{Priority: 1, Match: NewMatch(flow.Fields{EthType: hdr.EtherTypeIPv4}, lo), Actions: []Action{Drop()}})
	_, _, probes := tbl.Lookup(keyWith(1, 80))
	if probes != 1 {
		t.Fatalf("probes = %d, want 1 (early exit)", probes)
	}
}

func TestTableReplaceSamePriority(t *testing.T) {
	tbl := NewTable(0)
	m := flow.NewMaskBuilder().InPort().Build()
	match := NewMatch(flow.Fields{InPort: 1}, m)
	tbl.Insert(&Rule{Priority: 5, Match: match, Actions: []Action{Output(1)}})
	tbl.Insert(&Rule{Priority: 5, Match: match, Actions: []Action{Output(9)}})
	if tbl.Len() != 1 {
		t.Fatalf("len = %d after replace", tbl.Len())
	}
	r, _, _ := tbl.Lookup(keyWith(1, 80))
	if r.Actions[0].Port != 9 {
		t.Fatal("replacement not effective")
	}
}

func TestTableRemove(t *testing.T) {
	tbl := NewTable(0)
	m := flow.NewMaskBuilder().InPort().Build()
	match := NewMatch(flow.Fields{InPort: 1}, m)
	tbl.Insert(&Rule{Priority: 5, Match: match, Actions: []Action{Output(1)}})
	if !tbl.Remove(match, 5) {
		t.Fatal("remove failed")
	}
	if tbl.Remove(match, 5) {
		t.Fatal("double remove must fail")
	}
	if tbl.Len() != 0 || tbl.DistinctMasks() != 0 {
		t.Fatal("empty subtable must be dropped")
	}
}

func TestTranslateSimpleForward(t *testing.T) {
	p := NewPipeline()
	m := flow.NewMaskBuilder().InPort().Build()
	p.AddRule(&Rule{TableID: 0, Priority: 10,
		Match: NewMatch(flow.Fields{InPort: 1}, m), Actions: []Action{Output(2)}})

	mf, err := p.Translate(keyWith(1, 80))
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Actions) != 1 || mf.Actions[0].Type != DPOutput || mf.Actions[0].Port != 2 {
		t.Fatalf("actions = %v", mf.Actions)
	}
	// The megaflow must be wildcarded: it pins in_port (probed) but not
	// the TCP port (never examined).
	probe := flow.NewMaskBuilder().TPDst().Build()
	if mf.Mask.Union(probe) == mf.Mask {
		t.Fatal("megaflow must not pin unexamined fields")
	}
	inport := flow.NewMaskBuilder().InPort().Build()
	if mf.Mask.Union(inport) != mf.Mask {
		t.Fatal("megaflow must pin the input port")
	}
	// A different flow on the same port must satisfy the same megaflow.
	other := keyWith(1, 443)
	if other.Apply(mf.Mask) != keyWith(1, 80).Apply(mf.Mask) {
		t.Fatal("wildcarding failed: same-decision flows must share the megaflow")
	}
}

func TestTranslateGotoChain(t *testing.T) {
	p := NewPipeline()
	mIn := flow.NewMaskBuilder().InPort().Build()
	mTCP := flow.NewMaskBuilder().IPProto().Build()
	p.AddRule(&Rule{TableID: 0, Priority: 1,
		Match: NewMatch(flow.Fields{InPort: 1}, mIn), Actions: []Action{GotoTable(10)}})
	p.AddRule(&Rule{TableID: 10, Priority: 1,
		Match: NewMatch(flow.Fields{IPProto: hdr.IPProtoTCP}, mTCP), Actions: []Action{Output(5)}})

	mf, err := p.Translate(keyWith(1, 80))
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Actions) != 1 || mf.Actions[0].Port != 5 {
		t.Fatalf("actions = %v", mf.Actions)
	}
	// Both tables' probes contribute to the mask.
	if mf.Mask.Union(mTCP) != mf.Mask {
		t.Fatal("mask must include table 10's probe")
	}
}

func TestTranslateTableMissDrops(t *testing.T) {
	p := NewPipeline()
	p.Table(0) // empty table
	mf, err := p.Translate(keyWith(1, 80))
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Actions) != 0 {
		t.Fatalf("miss actions = %v", mf.Actions)
	}
}

func TestTranslateCTStopsAndRegistersRecirc(t *testing.T) {
	p := NewPipeline()
	mIn := flow.NewMaskBuilder().InPort().Build()
	p.AddRule(&Rule{TableID: 0, Priority: 1,
		Match:   NewMatch(flow.Fields{InPort: 1}, mIn),
		Actions: []Action{CT(7, false, 20), Output(99)}})

	mf, err := p.Translate(keyWith(1, 80))
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Actions) != 1 || mf.Actions[0].Type != DPCT || mf.Actions[0].Zone != 7 {
		t.Fatalf("actions = %v (output after ct must not leak into this pass)", mf.Actions)
	}
	recircID := mf.Actions[0].RecircID
	if recircID == 0 {
		t.Fatal("recirc id not allocated")
	}
	if tbl, ok := p.RecircTable(recircID); !ok || tbl != 20 {
		t.Fatalf("recirc registry = %d,%v", tbl, ok)
	}

	// Second pass: a recirculated key translates from table 20.
	mEst := flow.NewMaskBuilder().CtState(0xff).Build()
	p.AddRule(&Rule{TableID: 20, Priority: 1,
		Match:   NewMatch(flow.Fields{CtState: 0x05}, mEst), // trk|est
		Actions: []Action{Output(3)}})
	f := keyWith(1, 80).Unpack()
	f.RecircID = recircID
	f.CtState = 0x05
	mf2, err := p.Translate(f.Pack())
	if err != nil {
		t.Fatal(err)
	}
	if len(mf2.Actions) != 1 || mf2.Actions[0].Port != 3 {
		t.Fatalf("recirc pass actions = %v", mf2.Actions)
	}
}

func TestTranslateUnknownRecircFails(t *testing.T) {
	p := NewPipeline()
	f := keyWith(1, 80).Unpack()
	f.RecircID = 999
	if _, err := p.Translate(f.Pack()); err == nil {
		t.Fatal("unknown recirc id must fail translation")
	}
}

func TestTranslateGotoLoopBounded(t *testing.T) {
	p := NewPipeline()
	mIn := flow.NewMaskBuilder().InPort().Build()
	// Table 0 -> table 0 forever.
	p.AddRule(&Rule{TableID: 0, Priority: 1,
		Match: NewMatch(flow.Fields{InPort: 1}, mIn), Actions: []Action{GotoTable(0)}})
	if _, err := p.Translate(keyWith(1, 80)); err == nil {
		t.Fatal("infinite goto chain must fail translation")
	}
}

func TestTranslateTunnelOutput(t *testing.T) {
	p := NewPipeline()
	mIn := flow.NewMaskBuilder().InPort().Build()
	p.AddRule(&Rule{TableID: 0, Priority: 1,
		Match: NewMatch(flow.Fields{InPort: 1}, mIn),
		Actions: []Action{
			SetTunnel(tunnelConfigForTest()),
			Output(100),
		}})
	mf, err := p.Translate(keyWith(1, 80))
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Actions) != 2 || mf.Actions[0].Type != DPTunnelPush || mf.Actions[1].Type != DPOutput {
		t.Fatalf("actions = %v", mf.Actions)
	}
	if mf.Actions[0].Tunnel.VNI != 4096 {
		t.Fatal("tunnel config lost")
	}
}

func TestTranslateVLANAndRewrites(t *testing.T) {
	p := NewPipeline()
	mIn := flow.NewMaskBuilder().InPort().Build()
	p.AddRule(&Rule{TableID: 0, Priority: 1,
		Match: NewMatch(flow.Fields{InPort: 1}, mIn),
		Actions: []Action{
			PopVLAN(), SetEthDst(macB), DecTTL(), PushVLAN(100, 0), Output(4),
		}})
	mf, err := p.Translate(keyWith(1, 80))
	if err != nil {
		t.Fatal(err)
	}
	want := []DPActionType{DPPopVLAN, DPSetEthDst, DPDecTTL, DPPushVLAN, DPOutput}
	if len(mf.Actions) != len(want) {
		t.Fatalf("actions = %v", mf.Actions)
	}
	for i, w := range want {
		if mf.Actions[i].Type != w {
			t.Fatalf("action %d = %v, want %v", i, mf.Actions[i], w)
		}
	}
	// DecTTL unwildcards the TTL; PopVLAN unwildcards the VLAN.
	if mf.Mask.Union(flow.NewMaskBuilder().IPTTL().Build()) != mf.Mask {
		t.Fatal("dec_ttl must pin the TTL")
	}
	if mf.Mask.Union(flow.NewMaskBuilder().VLAN().Build()) != mf.Mask {
		t.Fatal("pop_vlan must pin the VLAN")
	}
}

func TestMeterTokenBucket(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPipeline()
	p.SetMeter(1, &TokenBucket{RatePerSec: 1000, Burst: 10, PerPacket: true})

	// Burst of 10 passes, the 11th at t=0 drops.
	for i := 0; i < 10; i++ {
		if !p.MeterAllow(1, 64, eng.Now()) {
			t.Fatalf("packet %d should conform", i)
		}
	}
	if p.MeterAllow(1, 64, eng.Now()) {
		t.Fatal("burst exhausted: must drop")
	}
	// After 10ms, 10 more tokens accumulated.
	eng.Schedule(10*sim.Millisecond, func() {})
	eng.Run()
	allowed := 0
	for i := 0; i < 20; i++ {
		if p.MeterAllow(1, 64, eng.Now()) {
			allowed++
		}
	}
	if allowed != 10 {
		t.Fatalf("allowed %d after refill, want 10", allowed)
	}
	// Unknown meters pass everything.
	if !p.MeterAllow(99, 64, eng.Now()) {
		t.Fatal("unknown meter must allow")
	}
}

func TestPipelineCounts(t *testing.T) {
	p := NewPipeline()
	mIn := flow.NewMaskBuilder().InPort().Build()
	for table := uint8(0); table < 5; table++ {
		for i := uint32(1); i <= 10; i++ {
			p.AddRule(&Rule{TableID: table, Priority: int(i),
				Match:   NewMatch(flow.Fields{InPort: i}, mIn),
				Actions: []Action{Output(i)}})
		}
	}
	if p.RuleCount() != 50 {
		t.Fatalf("rules = %d", p.RuleCount())
	}
	if p.TableCount() != 5 {
		t.Fatalf("tables = %d", p.TableCount())
	}
	if len(p.TableIDs()) != 5 {
		t.Fatal("table ids wrong")
	}
}

func tunnelConfigForTest() tunnel.Config {
	return tunnel.Config{Kind: tunnel.Geneve,
		LocalIP:  hdr.MakeIP4(172, 16, 0, 1),
		RemoteIP: hdr.MakeIP4(172, 16, 0, 2),
		VNI:      4096}
}

// TestTranslateSharesRuleActions: every megaflow one rule decides carries
// that rule's action list, compiled once, at cap == len.
func TestTranslateSharesRuleActions(t *testing.T) {
	p := NewPipeline()
	p.AddRule(&Rule{TableID: 0, Priority: 1,
		Match: NewMatch(flow.Fields{InPort: 1}, flow.NewMaskBuilder().InPort().Build()), Actions: []Action{Output(2)}})
	a, err := p.Translate(keyWith(1, 80))
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Translate(keyWith(1, 443))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Actions) != 1 || &a.Actions[0] != &b.Actions[0] {
		t.Fatalf("two megaflows of one rule: %v and %v, want one backing array", a.Actions, b.Actions)
	}
	if cap(a.Actions) != len(a.Actions) {
		t.Fatalf("cap %d, len %d: an append would write into the rule's list", cap(a.Actions), len(a.Actions))
	}
}

// TestTranslateGotoAfterSharedPrefix: a goto chain appends to the first
// rule's list without writing into it, and a drop further on still clears
// everything gathered.
func TestTranslateGotoAfterSharedPrefix(t *testing.T) {
	p := NewPipeline()
	mIn := flow.NewMaskBuilder().InPort().Build()
	mDst := flow.NewMaskBuilder().TPDst().Build()
	prefix := &Rule{TableID: 0, Priority: 1,
		Match: NewMatch(flow.Fields{InPort: 1}, mIn), Actions: []Action{PushVLAN(7, 0), GotoTable(10)}}
	p.AddRule(prefix)
	p.AddRule(&Rule{TableID: 10, Priority: 2,
		Match: NewMatch(flow.Fields{TPDst: 80}, mDst), Actions: []Action{Output(5)}})
	p.AddRule(&Rule{TableID: 10, Priority: 2,
		Match: NewMatch(flow.Fields{TPDst: 443}, mDst), Actions: []Action{Output(6)}})
	p.AddRule(&Rule{TableID: 10, Priority: 1, Match: MatchAny(), Actions: []Action{Drop()}})

	var got [][]DPAction
	for _, dport := range []uint16{80, 443, 22} {
		mf, err := p.Translate(keyWith(1, dport))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, mf.Actions)
	}
	shared := prefix.xl.actions
	if len(shared) != 1 || shared[0].Type != DPPushVLAN {
		t.Fatalf("the prefix rule's list became %v", shared)
	}
	for i, want := range []uint32{5, 6} {
		if a := got[i]; len(a) != 2 || a[0].Type != DPPushVLAN || a[1].Port != want {
			t.Fatalf("megaflow %d = %v, want [push_vlan(7) out(%d)]", i, a, want)
		}
	}
	if len(got[2]) != 0 {
		t.Fatalf("drop megaflow = %v, want no actions", got[2])
	}
}

// TestTranslateMemoKeepsActionMaskBits: the bits dec_ttl and pop_vlan add
// to the megaflow come with the memoized list too.
func TestTranslateMemoKeepsActionMaskBits(t *testing.T) {
	p := NewPipeline()
	p.AddRule(&Rule{TableID: 0, Priority: 1,
		Match:   NewMatch(flow.Fields{InPort: 1}, flow.NewMaskBuilder().InPort().Build()),
		Actions: []Action{PopVLAN(), DecTTL(), Output(4)}})
	want := flow.NewMaskBuilder().IPTTL().VLAN().Build()
	for i := 0; i < 2; i++ {
		mf, err := p.Translate(keyWith(1, 80))
		if err != nil {
			t.Fatal(err)
		}
		if mf.Mask.Union(want) != mf.Mask {
			t.Fatalf("translation %d: megaflow mask does not pin TTL and VLAN", i)
		}
	}
}

// TestRuleInTwoPipelinesGetsEachRecircID: one *Rule installed into two
// pipelines (as Pipeline.AddRule allows) resolves its ct() to each
// pipeline's own recirculation id.
func TestRuleInTwoPipelinesGetsEachRecircID(t *testing.T) {
	mIn := flow.NewMaskBuilder().InPort().Build()
	shared := &Rule{TableID: 0, Priority: 1,
		Match: NewMatch(flow.Fields{InPort: 1}, mIn), Actions: []Action{CT(1, true, 20)}}
	p1, p2 := NewPipeline(), NewPipeline()
	// p1 hands out an id for table 30 first, so the two pipelines number
	// table 20 differently.
	p1.AddRule(&Rule{TableID: 0, Priority: 1,
		Match: NewMatch(flow.Fields{InPort: 2}, mIn), Actions: []Action{CT(1, true, 30)}})
	if _, err := p1.Translate(keyWith(2, 80)); err != nil {
		t.Fatal(err)
	}
	p1.AddRule(shared)
	p2.AddRule(shared)
	var ids []uint32
	for _, p := range []*Pipeline{p1, p2, p1, p2} {
		mf, err := p.Translate(keyWith(1, 80))
		if err != nil {
			t.Fatal(err)
		}
		id := mf.Actions[0].RecircID
		if tbl, ok := p.RecircTable(id); !ok || tbl != 20 {
			t.Fatalf("recirc id %d resolves to table %d (%v) in its pipeline, want 20", id, tbl, ok)
		}
		ids = append(ids, id)
	}
	if ids[0] == ids[1] || ids[0] != ids[2] || ids[1] != ids[3] {
		t.Fatalf("recirc ids p1, p2, p1, p2 = %v: want each pipeline's own, stable", ids)
	}
}
