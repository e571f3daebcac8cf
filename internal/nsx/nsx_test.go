package nsx

import (
	"reflect"
	"testing"

	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet/hdr"
)

// programmed sends rs through a fresh daemon and returns its pipeline.
func programmed(t *testing.T, rs *Ruleset) *ofproto.Pipeline {
	t.Helper()
	v := Hypervisor()
	if err := rs.Program(v); err != nil {
		t.Fatal(err)
	}
	return v.Pipeline
}

// TestGenerateReproducesTable3: the daemon the generated rule set is sent
// to holds Table 3's rules and tables, and the generator has its tunnels
// and VMs.
func TestGenerateReproducesTable3(t *testing.T) {
	rs := Generate(DefaultConfig())
	if n := len(rs.RemoteVTEPs); n != 291 {
		t.Fatalf("tunnels = %d, Table 3 says 291", n)
	}
	if rs.Config.NumVMs != 15 || rs.Config.IfacesPerVM != 2 || len(rs.VIFs) != 30 {
		t.Fatalf("vms = %d x %d (%d VIFs), Table 3 says 15 x 2", rs.Config.NumVMs, rs.Config.IfacesPerVM, len(rs.VIFs))
	}
	pl := programmed(t, rs)
	if n := pl.RuleCount(); n != 103302 {
		t.Fatalf("daemon holds %d rules, Table 3 says 103,302", n)
	}
	if n := pl.TableCount(); n != 40 {
		t.Fatalf("daemon holds %d tables, Table 3 says 40", n)
	}
	// Table 3 reports 31 matching fields; our flow model names fewer (NSX
	// also matches on registers), so require a rich spread.
	if n := pl.FieldCount(); n < 10 {
		t.Fatalf("matching fields = %d, want >= 10", n)
	}
}

// TestRulesetCrossesTheWire: every generated rule, sent through the daemon
// as an encoded flow mod, is installed as generated, one for one in table,
// priority, cookie, match and actions — a match field the codec could not
// carry would install a broader rule (the SYN-flood guard as "tcp, drop").
func TestRulesetCrossesTheWire(t *testing.T) {
	rs := Generate(DefaultConfig())
	pl := programmed(t, rs)
	type slot struct {
		table    uint8
		priority int
		match    ofproto.Match
	}
	installed := map[slot]*ofproto.Rule{}
	for _, id := range pl.TableIDs() {
		for _, r := range pl.Table(id).Rules() {
			installed[slot{r.TableID, r.Priority, r.Match}] = r
		}
	}
	differ := 0
	for _, want := range rs.Rules {
		got := installed[slot{want.TableID, want.Priority, want.Match}]
		if got == nil || got.Cookie != want.Cookie || !reflect.DeepEqual(got.Actions, want.Actions) {
			if differ++; differ <= 6 {
				t.Errorf("generated %v\n installed %v", want, got)
			}
		}
	}
	if differ > 0 {
		t.Fatalf("%d of %d rules arrived other than generated", differ, len(rs.Rules))
	}
}

func TestPipelineThreePassWalk(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetRules = 2000 // keep the test fast; structure is identical
	rs := Generate(cfg)
	pl := programmed(t, rs)

	// Pass 1: a VIF packet classifies into the egress pipeline and stops
	// at ct (the DPCT action ends translation).
	vifA, vifB := rs.VIFs[0], rs.VIFs[1]
	key := (&flow.Fields{
		InPort: vifA.Port, EthSrc: vifA.MAC, EthDst: vifB.MAC,
		EthType: hdr.EtherTypeIPv4, IPProto: hdr.IPProtoTCP, IPTTL: 64,
		IP4Src: vifA.IP, IP4Dst: vifB.IP, TPDst: 8080, TPSrc: 2000,
	}).Pack()
	mf, err := pl.Translate(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Actions) != 1 || mf.Actions[0].Type != ofproto.DPCT {
		t.Fatalf("pass-1 actions = %v", mf.Actions)
	}
	if mf.Actions[0].Zone != vifB.Zone {
		t.Fatalf("zone = %d, want %d", mf.Actions[0].Zone, vifB.Zone)
	}

	// Pass 2: recirculated with established state, the packet reaches L2
	// and outputs to vifB.
	f2 := key.Unpack()
	f2.RecircID = mf.Actions[0].RecircID
	f2.CtState = 0x05 // trk|est
	mf2, err := pl.Translate(f2.Pack())
	if err != nil {
		t.Fatal(err)
	}
	if len(mf2.Actions) != 1 || mf2.Actions[0].Type != ofproto.DPOutput ||
		mf2.Actions[0].Port != vifB.Port {
		t.Fatalf("pass-2 actions = %v", mf2.Actions)
	}

	// Remote destination: the established pass emits tunnel push + uplink
	// output.
	remoteMAC := RemoteMAC(7)
	f3 := f2
	f3.EthDst = remoteMAC
	mf3, err := pl.Translate(f3.Pack())
	if err != nil {
		t.Fatal(err)
	}
	if len(mf3.Actions) != 2 || mf3.Actions[0].Type != ofproto.DPTunnelPush ||
		mf3.Actions[1].Port != cfg.UplinkPort {
		t.Fatalf("remote actions = %v", mf3.Actions)
	}
	if mf3.Actions[0].Tunnel.RemoteIP != VTEPAddr(7) {
		t.Fatalf("tunnel remote = %s", mf3.Actions[0].Tunnel.RemoteIP)
	}

	// Inbound tunneled traffic: outer match pops the tunnel.
	outer := (&flow.Fields{
		InPort: cfg.UplinkPort, EthType: hdr.EtherTypeIPv4,
		IPProto: hdr.IPProtoUDP, TPDst: hdr.GenevePort,
		IP4Src: VTEPAddr(3), IP4Dst: cfg.LocalVTEP, TPSrc: 50000,
	}).Pack()
	mf4, err := pl.Translate(outer)
	if err != nil {
		t.Fatal(err)
	}
	if len(mf4.Actions) != 1 || mf4.Actions[0].Type != ofproto.DPTunnelPop ||
		mf4.Actions[0].Port != cfg.TunnelVPort {
		t.Fatalf("inbound actions = %v", mf4.Actions)
	}

	// Post-decap pass: tunnel-source admission then ct.
	inner := (&flow.Fields{
		InPort: cfg.TunnelVPort, EthSrc: remoteMAC, EthDst: vifA.MAC,
		EthType: hdr.EtherTypeIPv4, IPProto: hdr.IPProtoTCP,
		IP4Src: hdr.MakeIP4(10, 99, 0, 1), IP4Dst: vifA.IP,
		TunSrc: VTEPAddr(3), TunDst: cfg.LocalVTEP, TunVNI: 5000,
	}).Pack()
	mf5, err := pl.Translate(inner)
	if err != nil {
		t.Fatal(err)
	}
	if len(mf5.Actions) != 1 || mf5.Actions[0].Type != ofproto.DPCT {
		t.Fatalf("post-decap actions = %v", mf5.Actions)
	}
}

func TestUnknownVTEPDropped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetRules = 1500
	rs := Generate(cfg)
	pl := programmed(t, rs)

	inner := (&flow.Fields{
		InPort: cfg.TunnelVPort, EthType: hdr.EtherTypeIPv4,
		TunSrc: hdr.MakeIP4(203, 0, 113, 9), // not a known VTEP
	}).Pack()
	mf, err := pl.Translate(inner)
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Actions) != 0 {
		t.Fatalf("unknown VTEP must drop, got %v", mf.Actions)
	}
}

func TestNewConnectionsWalkTheDFW(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetRules = 5000
	rs := Generate(cfg)
	pl := programmed(t, rs)

	vifA, vifB := rs.VIFs[0], rs.VIFs[1]
	key := (&flow.Fields{
		InPort: vifA.Port, EthDst: vifB.MAC, EthType: hdr.EtherTypeIPv4,
		IPProto: hdr.IPProtoTCP, IPTTL: 64, IP4Src: vifA.IP, IP4Dst: vifB.IP,
		TPSrc: 2000, TPDst: 8080, TCPFlags: hdr.TCPAck, // not the SYN-flood guard's +syn+fin
		RecircID: 0,
	}).Pack()
	mf, err := pl.Translate(key)
	if err != nil {
		t.Fatal(err)
	}
	// New connection: recirc with trk|new walks the DFW chain and, not
	// matching any filler drop, reaches L2.
	f := key.Unpack()
	f.RecircID = mf.Actions[0].RecircID
	f.CtState = 0x03
	mf2, err := pl.Translate(f.Pack())
	if err != nil {
		t.Fatal(err)
	}
	if len(mf2.Actions) != 1 || mf2.Actions[0].Port != vifB.Port {
		t.Fatalf("new-connection pass = %v", mf2.Actions)
	}
	// The DFW walk must have pinned the 5-tuple in the megaflow mask
	// (the firewall examined it), so the megaflow is narrow.
	if mf2.Mask.Union(flow.NewMaskBuilder().TPDst().Build()) != mf2.Mask {
		t.Fatal("DFW pass must unwildcard the destination port")
	}
}

func TestARPFloods(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetRules = 1500
	rs := Generate(cfg)
	pl := programmed(t, rs)

	key := (&flow.Fields{
		InPort: rs.VIFs[0].Port, EthDst: hdr.Broadcast, EthType: hdr.EtherTypeARP,
	}).Pack()
	mf, err := pl.Translate(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Actions) != len(rs.VIFs) {
		t.Fatalf("broadcast outputs = %d, want %d", len(mf.Actions), len(rs.VIFs))
	}
}
