package openflow

import (
	"testing"

	"ovsxdp/internal/conntrack"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/tunnel"
)

// shortOutputFlowMod is a well-framed flow mod whose one action, an output,
// has a length field of 4 and therefore no port: 40 zero bytes of fixed
// part, an empty OXM match, and an apply-actions instruction holding it.
var shortOutputFlowMod = append(make([]byte, 40),
	0x00, 0x01, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, // ofp_match: OXM, length 4, pad
	0x00, 0x04, 0x00, 0x0c, 0x00, 0x00, 0x00, 0x00, // apply-actions, length 12, pad
	0x00, 0x00, 0x00, 0x04) // output, length 4

// encodedFlowMods is every flow mod the round-trip tests encode.
func encodedFlowMods() [][]byte {
	tun := tunnel.Config{Kind: tunnel.Geneve, VNI: 5001,
		LocalIP: hdr.MakeIP4(172, 16, 0, 1), RemoteIP: hdr.MakeIP4(172, 16, 0, 2)}
	var out [][]byte
	for _, fm := range []FlowMod{
		{Command: FlowModAdd, TableID: 7, Priority: 100, Cookie: 0xfeed, Match: matchForTest(),
			Actions: []ofproto.Action{ofproto.Meter(4), ofproto.PopVLAN(),
				ofproto.SetEthDst(hdr.MAC{1, 2, 3, 4, 5, 6}), ofproto.DecTTL(),
				ofproto.PushVLAN(100, 3), ofproto.Output(9), ofproto.GotoTable(20)}},
		{Priority: 5, Match: ofproto.MatchAny(), Actions: []ofproto.Action{{Type: ofproto.ActionCT, Zone: 42, Commit: true, Table: 30,
			NAT: conntrack.NAT{Kind: conntrack.SNAT, Addr: hdr.MakeIP4(192, 0, 2, 1), Port: 40000}}}},
		{Match: ofproto.MatchAny(), Actions: []ofproto.Action{ofproto.SetTunnel(tun), ofproto.Output(2)}},
		{Match: ofproto.MatchAny(), Actions: []ofproto.Action{ofproto.TunnelPop(100)}},
		{Match: ofproto.MatchAny(), Actions: []ofproto.Action{ofproto.Drop()}},
	} {
		out = append(out, encoded(fm).Body)
	}
	return out
}

// decodeExact decodes body the way a connection delivers it: ReadMessage
// allocates at exact capacity, so a read past the end panics instead of
// quietly seeing spare capacity.
func decodeExact(body []byte) (FlowMod, error) {
	exact := make([]byte, len(body))
	copy(exact, body)
	return DecodeFlowMod(Message{Type: TypeFlowMod, Body: exact})
}

func TestDecodeFlowModRejectsShortPayloads(t *testing.T) {
	if _, err := decodeExact(shortOutputFlowMod); err == nil {
		t.Fatal("an output action without a port decoded")
	}
	// Every proper prefix of a valid flow mod is an error or a shorter
	// valid flow mod, never a panic.
	for _, body := range encodedFlowMods() {
		if _, err := decodeExact(body); err != nil {
			t.Fatalf("valid flow mod rejected: %v", err)
		}
		for n := range body {
			decodeExact(body[:n])
		}
	}
}

// FuzzDecodeFlowMod: no byte string a TCP peer can send makes the flow-mod
// decoder panic.
func FuzzDecodeFlowMod(f *testing.F) {
	for _, body := range append(encodedFlowMods(), shortOutputFlowMod) {
		for n := 0; n <= len(body); n++ {
			f.Add(body[:n])
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) { decodeExact(body) })
}
