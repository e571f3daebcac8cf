package openflow

import (
	"bytes"
	"net"
	"strings"
	"testing"

	"ovsxdp/internal/conntrack"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/tunnel"
)

func TestMessageFraming(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		Hello(1),
		EchoRequest(2, []byte("ping")),
		ErrorMsg(3, 1, 9, []byte{0xde, 0xad}),
	}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || got.Xid != want.Xid || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, want)
		}
	}
}

func TestReadRejectsBadVersion(t *testing.T) {
	raw := Hello(1).Encode()
	raw[0] = 0x01
	if _, err := ReadMessage(bytes.NewReader(raw)); err == nil {
		t.Fatal("bad version must fail")
	}
}

func TestEchoReplyEchoesPayload(t *testing.T) {
	req := EchoRequest(7, []byte("abc"))
	rep := EchoReply(req)
	if rep.Type != TypeEchoReply || rep.Xid != 7 || !bytes.Equal(rep.Body, []byte("abc")) {
		t.Fatalf("echo reply = %+v", rep)
	}
}

func TestFeaturesReply(t *testing.T) {
	m := FeaturesReply(3, 0xabcdef)
	id, err := ParseFeaturesReply(m)
	if err != nil || id != 0xabcdef {
		t.Fatalf("features = %#x, %v", id, err)
	}
}

// encoded is EncodeFlowMod for a flow mod a test states, which the codec
// must carry.
func encoded(fm FlowMod) Message {
	msg, err := EncodeFlowMod(fm)
	if err != nil {
		panic(err)
	}
	return msg
}

func matchForTest() ofproto.Match {
	mask := flow.NewMaskBuilder().InPort().EthType().IPProto().
		IP4Dst(24).TPDst().CtState(0x05).CtZone().TunVNI().Build()
	return ofproto.NewMatch(flow.Fields{
		InPort: 3, EthType: hdr.EtherTypeIPv4, IPProto: hdr.IPProtoTCP,
		IP4Dst: hdr.MakeIP4(10, 1, 2, 0), TPDst: 443,
		CtState: 0x05, CtZone: 9, TunVNI: 777,
	}, mask)
}

func TestMatchRoundTrip(t *testing.T) {
	want := matchForTest()
	raw := EncodeMatch(want)
	if len(raw)%8 != 0 {
		t.Fatalf("match not 8-aligned: %d", len(raw))
	}
	got, n, err := DecodeMatch(raw)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(raw) {
		t.Fatalf("consumed %d of %d", n, len(raw))
	}
	if got.Key != want.Key {
		t.Fatalf("keys differ:\n got  %s\n want %s", got.Key, want.Key)
	}
	if got.Mask != want.Mask {
		t.Fatal("masks differ after round trip")
	}
}

func TestMatchSemantics(t *testing.T) {
	raw := EncodeMatch(matchForTest())
	m, _, err := DecodeMatch(raw)
	if err != nil {
		t.Fatal(err)
	}
	// A packet key in the right /24 with the right port matches.
	k := (&flow.Fields{InPort: 3, EthType: hdr.EtherTypeIPv4, IPProto: hdr.IPProtoTCP,
		IP4Src: hdr.MakeIP4(9, 9, 9, 9), IP4Dst: hdr.MakeIP4(10, 1, 2, 55), TPDst: 443,
		CtState: 0x05, CtZone: 9, TunVNI: 777, TPSrc: 5555}).Pack()
	if !m.Matches(k) {
		t.Fatal("decoded match must accept an in-prefix key")
	}
	k2 := (&flow.Fields{InPort: 3, EthType: hdr.EtherTypeIPv4, IPProto: hdr.IPProtoTCP,
		IP4Dst: hdr.MakeIP4(10, 1, 3, 55), TPDst: 443, CtState: 0x05, CtZone: 9, TunVNI: 777}).Pack()
	if m.Matches(k2) {
		t.Fatal("decoded match must reject an out-of-prefix key")
	}
}

func TestFlowModRoundTrip(t *testing.T) {
	fm := FlowMod{
		Command: FlowModAdd, TableID: 7, Priority: 100, Cookie: 0xfeed,
		Match: matchForTest(),
		Actions: []ofproto.Action{
			ofproto.Meter(4),
			ofproto.PopVLAN(),
			ofproto.SetEthDst(hdr.MAC{1, 2, 3, 4, 5, 6}),
			ofproto.DecTTL(),
			ofproto.PushVLAN(100, 3),
			ofproto.Output(9),
			ofproto.GotoTable(20),
		},
	}
	msg := encoded(fm)
	got, err := DecodeFlowMod(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got.TableID != 7 || got.Priority != 100 || got.Cookie != 0xfeed || got.Command != FlowModAdd {
		t.Fatalf("fixed fields: %+v", got)
	}
	if got.Match.Key != fm.Match.Key || got.Match.Mask != fm.Match.Mask {
		t.Fatal("match mismatch")
	}
	if len(got.Actions) != len(fm.Actions) {
		t.Fatalf("actions = %v", got.Actions)
	}
	// Meter first, goto last (ordering contract).
	if got.Actions[0].Type != ofproto.ActionMeter || got.Actions[0].MeterID != 4 {
		t.Fatalf("first action = %v", got.Actions[0])
	}
	if got.Actions[len(got.Actions)-1].Type != ofproto.ActionGoto || got.Actions[len(got.Actions)-1].Table != 20 {
		t.Fatalf("last action = %v", got.Actions[len(got.Actions)-1])
	}
	for _, a := range got.Actions {
		if a.Type == ofproto.ActionPushVLAN {
			if a.VLAN != 100 || a.VLANPrio != 3 {
				t.Fatalf("push_vlan = %+v", a)
			}
		}
		if a.Type == ofproto.ActionSetEthDst && a.MAC != (hdr.MAC{1, 2, 3, 4, 5, 6}) {
			t.Fatalf("set_eth_dst = %v", a.MAC)
		}
	}
}

func TestFlowModCTAction(t *testing.T) {
	fm := FlowMod{
		Command: FlowModAdd, TableID: 0, Priority: 5,
		Match: ofproto.MatchAny(),
		Actions: []ofproto.Action{
			{Type: ofproto.ActionCT, Zone: 42, Commit: true, Table: 30, NAT: conntrack.NAT{Kind: conntrack.SNAT,
				Addr: hdr.MakeIP4(192, 0, 2, 1), Port: 40000, PortLo: 1024, PortHi: 2047}},
		},
	}
	got, err := DecodeFlowMod(encoded(fm))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Actions) != 1 {
		t.Fatalf("actions = %v", got.Actions)
	}
	a := got.Actions[0]
	if a.Type != ofproto.ActionCT || !a.Commit || a.Zone != 42 || a.Table != 30 {
		t.Fatalf("ct = %+v", a)
	}
	if a.NAT != fm.Actions[0].NAT {
		t.Fatalf("nat = %+v, want %+v", a.NAT, fm.Actions[0].NAT)
	}
}

// TestEncodeFlowModRefusesUncarriedMatch: a match on bits no row of
// flow.MatchFields carries is refused by the field's name, never sent
// without them — the IPv6 source of the NSX neighbor rule before it became
// an ICMPv6 type match, and a nw_proto under a mask OXM cannot state.
func TestEncodeFlowModRefusesUncarriedMatch(t *testing.T) {
	neighbor := flow.Fields{EthType: 0xffff, IPProto: 0xff} // the old rule's mask: ipv6_src=:: exact
	for i := range neighbor.IPv6Src {
		neighbor.IPv6Src[i] = 0xff
	}
	for name, m := range map[string]ofproto.Match{
		"IPv6Src": ofproto.NewMatch(flow.Fields{EthType: hdr.EtherTypeIPv6, IPProto: hdr.IPProtoICMPv6},
			flow.Mask(neighbor.Pack())),
		"IPProto": {Mask: flow.Mask{4: 0x0f << 56}},
	} {
		_, err := EncodeFlowMod(FlowMod{Match: m, Actions: []ofproto.Action{ofproto.Drop()}})
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("match on %s: EncodeFlowMod error %v", name, err)
		}
	}
}

func TestFlowModTunnelActions(t *testing.T) {
	cfg := tunnel.Config{Kind: tunnel.Geneve, VNI: 5001,
		LocalIP: hdr.MakeIP4(172, 16, 0, 1), RemoteIP: hdr.MakeIP4(172, 16, 0, 2)}
	fm := FlowMod{
		Match:   ofproto.MatchAny(),
		Actions: []ofproto.Action{ofproto.SetTunnel(cfg), ofproto.Output(2)},
	}
	got, err := DecodeFlowMod(encoded(fm))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Actions) != 2 {
		t.Fatalf("actions = %v", got.Actions)
	}
	st := got.Actions[0]
	if st.Type != ofproto.ActionSetTunnel || st.Tunnel.Kind != cfg.Kind ||
		st.Tunnel.VNI != cfg.VNI || st.Tunnel.LocalIP != cfg.LocalIP ||
		st.Tunnel.RemoteIP != cfg.RemoteIP {
		t.Fatalf("set_tunnel = %+v", st.Tunnel)
	}
	if got.Actions[1].Type != ofproto.ActionOutput || got.Actions[1].Port != 2 {
		t.Fatalf("output = %+v", got.Actions[1])
	}

	// Tunnel pop.
	fm2 := FlowMod{Match: ofproto.MatchAny(),
		Actions: []ofproto.Action{ofproto.TunnelPop(100)}}
	got2, err := DecodeFlowMod(encoded(fm2))
	if err != nil {
		t.Fatal(err)
	}
	if got2.Actions[0].Type != ofproto.ActionTunnelPop || got2.Actions[0].Port != 100 {
		t.Fatalf("tnl_pop = %+v", got2.Actions[0])
	}
}

func TestFlowModDropAction(t *testing.T) {
	fm := FlowMod{Match: ofproto.MatchAny(), Actions: []ofproto.Action{ofproto.Drop()}}
	got, err := DecodeFlowMod(encoded(fm))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Actions) != 1 || got.Actions[0].Type != ofproto.ActionDrop {
		t.Fatalf("actions = %v", got.Actions)
	}
}

func TestFlowModOverTCP(t *testing.T) {
	// Full round trip across a real socket: the agent side writes, the
	// switch side reads.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	fm := FlowMod{Command: FlowModAdd, TableID: 1, Priority: 10,
		Match:   matchForTest(),
		Actions: []ofproto.Action{ofproto.Output(4)}}

	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		msg, err := ReadMessage(conn)
		if err != nil {
			done <- err
			return
		}
		got, err := DecodeFlowMod(msg)
		if err != nil {
			done <- err
			return
		}
		if got.Match.Key != fm.Match.Key || got.Actions[0].Port != 4 {
			done <- err
			return
		}
		done <- nil
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := encoded(fm)
	msg.Xid = 42
	if err := WriteMessage(conn, msg); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestDecodeMatchRejectsGarbage(t *testing.T) {
	if _, _, err := DecodeMatch([]byte{0, 1}); err == nil {
		t.Fatal("short match must fail")
	}
	// TLV with payload overrunning.
	bad := make([]byte, 16)
	bad[1] = 1 // type 1
	bad[3] = 12
	bad[4], bad[5] = 0x80, 0x00
	bad[6] = oxmInPort << 1
	bad[7] = 200 // absurd length
	if _, _, err := DecodeMatch(bad); err == nil {
		t.Fatal("overrunning TLV must fail")
	}
}
