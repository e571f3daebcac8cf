package flow

import (
	"testing"
	"testing/quick"

	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
)

var (
	macA = hdr.MAC{0x02, 0, 0, 0, 0, 0x0a}
	macB = hdr.MAC{0x02, 0, 0, 0, 0, 0x0b}
	ipA  = hdr.MakeIP4(10, 0, 0, 1)
	ipB  = hdr.MakeIP4(10, 0, 0, 2)
)

func udpPacket() *packet.Packet {
	frame := hdr.NewBuilder().Eth(macA, macB).IPv4H(ipA, ipB, 64).
		UDPH(1234, 5678).PayloadLen(18).PadTo(64).Build()
	p := packet.New(frame)
	p.InPort = 3
	return p
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := Fields{
		InPort: 5, RecircID: 2,
		EthDst: macB, EthSrc: macA, EthType: hdr.EtherTypeIPv4,
		VLANTCI: VLANPresent | 3<<13 | 100,
		IP4Src:  ipA, IP4Dst: ipB,
		IPProto: hdr.IPProtoTCP, IPTOS: 0x10, IPTTL: 63, IPFrag: 1,
		TPSrc: 80, TPDst: 1024, TCPFlags: hdr.TCPSyn,
		ICMPType: 8, ICMPCode: 1,
		CtState: 0x05, CtZone: 7, CtMark: 0xdeadbeef,
		TunVNI: 0xABCDE, TunSrc: hdr.MakeIP4(1, 1, 1, 1), TunDst: hdr.MakeIP4(2, 2, 2, 2),
	}
	f.IPv6Src[3] = 0x42
	f.IPv6Dst[12] = 0x24
	got := f.Pack().Unpack()
	if got != f {
		t.Fatalf("round trip mismatch:\n got  %+v\n want %+v", got, f)
	}
}

func TestPackUnpackProperty(t *testing.T) {
	// Any combination of representative values must round-trip.
	f := func(inPort, recirc uint32, sp, dp uint16, proto, tos uint8, src, dst uint32, vni uint32) bool {
		fields := Fields{
			InPort: inPort, RecircID: recirc,
			EthType: hdr.EtherTypeIPv4,
			IP4Src:  hdr.IP4(src), IP4Dst: hdr.IP4(dst),
			IPProto: hdr.IPProto(proto), IPTOS: tos,
			TPSrc: sp, TPDst: dp,
			TunVNI: vni & 0xffffff,
		}
		return fields.Pack().Unpack() == fields
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExtractUDP(t *testing.T) {
	p := udpPacket()
	k := Extract(p)
	f := k.Unpack()
	if f.InPort != 3 {
		t.Errorf("in_port = %d", f.InPort)
	}
	if f.EthSrc != macA || f.EthDst != macB {
		t.Errorf("macs = %s %s", f.EthSrc, f.EthDst)
	}
	if f.EthType != hdr.EtherTypeIPv4 {
		t.Errorf("eth type = %s", f.EthType)
	}
	if f.IP4Src != ipA || f.IP4Dst != ipB {
		t.Errorf("ips = %s %s", f.IP4Src, f.IP4Dst)
	}
	if f.IPProto != hdr.IPProtoUDP || f.IPTTL != 64 {
		t.Errorf("proto/ttl = %s/%d", f.IPProto, f.IPTTL)
	}
	if f.TPSrc != 1234 || f.TPDst != 5678 {
		t.Errorf("ports = %d %d", f.TPSrc, f.TPDst)
	}
	if p.L3Offset != 14 || p.L4Offset != 34 {
		t.Errorf("offsets = %d %d", p.L3Offset, p.L4Offset)
	}
}

func TestExtractTCPFlags(t *testing.T) {
	frame := hdr.NewBuilder().Eth(macA, macB).IPv4H(ipA, ipB, 64).
		TCPH(80, 1024, 1, 2, hdr.TCPSyn|hdr.TCPAck).Build()
	k := Extract(packet.New(frame))
	f := k.Unpack()
	if f.IPProto != hdr.IPProtoTCP || f.TCPFlags != hdr.TCPSyn|hdr.TCPAck {
		t.Fatalf("tcp extract wrong: %+v", f)
	}
}

func TestExtractVLAN(t *testing.T) {
	frame := hdr.NewBuilder().Eth(macA, macB).VLAN(100, 3).IPv4H(ipA, ipB, 64).
		UDPH(1, 2).PayloadLen(4).Build()
	p := packet.New(frame)
	f := Extract(p).Unpack()
	if f.VLANTCI != VLANPresent|3<<13|100 {
		t.Fatalf("vlan tci = %#x", f.VLANTCI)
	}
	if f.EthType != hdr.EtherTypeIPv4 || f.IP4Src != ipA {
		t.Fatal("inner ethertype/IP must still extract behind the tag")
	}
	if p.L3Offset != 18 {
		t.Fatalf("L3 offset = %d", p.L3Offset)
	}
}

func TestExtractUntaggedVsVID0(t *testing.T) {
	untagged := Extract(packet.New(hdr.NewBuilder().Eth(macA, macB).
		IPv4H(ipA, ipB, 64).UDPH(1, 2).PayloadLen(4).Build()))
	tagged0 := Extract(packet.New(hdr.NewBuilder().Eth(macA, macB).VLAN(0, 0).
		IPv4H(ipA, ipB, 64).UDPH(1, 2).PayloadLen(4).Build()))
	if untagged == tagged0 {
		t.Fatal("untagged and VID-0-tagged frames must extract differently")
	}
}

func TestExtractARP(t *testing.T) {
	frame := hdr.NewBuilder().Eth(macA, hdr.Broadcast).
		ARPH(hdr.ARPRequest, macA, ipA, hdr.MAC{}, ipB).Build()
	f := Extract(packet.New(frame)).Unpack()
	if f.EthType != hdr.EtherTypeARP {
		t.Fatalf("eth type = %s", f.EthType)
	}
	if f.IPProto != hdr.IPProto(hdr.ARPRequest) {
		t.Fatalf("arp op in proto slot = %d", f.IPProto)
	}
	if f.IP4Src != ipA || f.IP4Dst != ipB {
		t.Fatalf("SPA/TPA = %s/%s", f.IP4Src, f.IP4Dst)
	}
}

func TestExtractIPv6(t *testing.T) {
	var src, dst hdr.IP6
	src[15], dst[15] = 1, 2
	frame := hdr.NewBuilder().Eth(macA, macB).IPv6H(src, dst, 64).UDPH(53, 53).PayloadLen(8).Build()
	f := Extract(packet.New(frame)).Unpack()
	if f.EthType != hdr.EtherTypeIPv6 || f.IPv6Src != src || f.IPv6Dst != dst {
		t.Fatalf("ipv6 extract wrong: %+v", f)
	}
	if f.TPSrc != 53 || f.IPProto != hdr.IPProtoUDP {
		t.Fatal("ipv6 L4 extract wrong")
	}
}

func TestExtractICMP(t *testing.T) {
	frame := hdr.NewBuilder().Eth(macA, macB).IPv4H(ipA, ipB, 64).
		ICMPH(hdr.ICMPEchoRequest, 0, 1, 1).Build()
	f := Extract(packet.New(frame)).Unpack()
	if f.ICMPType != hdr.ICMPEchoRequest {
		t.Fatalf("icmp type = %d", f.ICMPType)
	}
}

func TestExtractFragment(t *testing.T) {
	// Build a UDP frame, then mark it as a later fragment.
	frame := hdr.NewBuilder().Eth(macA, macB).IPv4H(ipA, ipB, 64).UDPH(1111, 2222).PayloadLen(8).Build()
	frame[14+6] = 0x00
	frame[14+7] = 0x10 // fragment offset 16
	f := Extract(packet.New(frame)).Unpack()
	if f.IPFrag != 3 {
		t.Fatalf("frag = %d, want 3 (later fragment)", f.IPFrag)
	}
	if f.TPSrc != 0 || f.TPDst != 0 {
		t.Fatal("later fragments must not expose L4 ports")
	}
}

func TestExtractTruncatedNeverPanics(t *testing.T) {
	full := hdr.NewBuilder().Eth(macA, macB).IPv4H(ipA, ipB, 64).UDPH(1, 2).PayloadLen(30).Build()
	for n := 0; n <= len(full); n++ {
		p := packet.New(full[:n])
		_ = Extract(p) // must not panic at any truncation point
	}
}

func TestExtractTunnelMetadata(t *testing.T) {
	p := udpPacket()
	p.Tunnel = &packet.TunnelInfo{VNI: 77, SrcIP: hdr.MakeIP4(9, 9, 9, 1), DstIP: hdr.MakeIP4(9, 9, 9, 2)}
	f := Extract(p).Unpack()
	if f.TunVNI != 77 || f.TunSrc != hdr.MakeIP4(9, 9, 9, 1) || f.TunDst != hdr.MakeIP4(9, 9, 9, 2) {
		t.Fatalf("tunnel metadata lost: %+v", f)
	}
}

func TestExtractCtMetadata(t *testing.T) {
	p := udpPacket()
	p.CtState = packet.CtTracked | packet.CtEstablished
	p.CtZone = 42
	p.CtMark = 0xbeef
	f := Extract(p).Unpack()
	if f.CtState != uint8(packet.CtTracked|packet.CtEstablished) || f.CtZone != 42 || f.CtMark != 0xbeef {
		t.Fatalf("ct metadata lost: %+v", f)
	}
}

func TestApplyMask(t *testing.T) {
	k := Extract(udpPacket())
	m := NewMaskBuilder().EthType().IPProto().TPDst().Build()
	masked := k.Apply(m)
	f := masked.Unpack()
	if f.TPDst != 5678 || f.IPProto != hdr.IPProtoUDP || f.EthType != hdr.EtherTypeIPv4 {
		t.Fatal("masked-in fields must survive")
	}
	if f.TPSrc != 0 || f.IP4Src != 0 || f.EthSrc != (hdr.MAC{}) || f.InPort != 0 {
		t.Fatal("masked-out fields must be cleared")
	}
}

func TestMaskedEquality(t *testing.T) {
	m := NewMaskBuilder().IP4Dst(32).IPProto().Build()
	a := Extract(udpPacket())

	other := udpPacket()
	// Different source IP, same destination and protocol.
	otherFrame := hdr.NewBuilder().Eth(macA, macB).IPv4H(hdr.MakeIP4(172, 16, 0, 9), ipB, 64).
		UDPH(999, 888).PayloadLen(18).Build()
	other.Data = otherFrame
	b := Extract(other)

	if a.Apply(m) != b.Apply(m) {
		t.Fatal("keys equal under mask must compare equal after Apply")
	}
	if a == b {
		t.Fatal("full keys must differ")
	}
}

func TestMaskPrefix(t *testing.T) {
	m := NewMaskBuilder().IP4Src(24).Build()
	f1 := Fields{IP4Src: hdr.MakeIP4(10, 1, 2, 3)}
	f2 := Fields{IP4Src: hdr.MakeIP4(10, 1, 2, 200)}
	f3 := Fields{IP4Src: hdr.MakeIP4(10, 1, 9, 3)}
	if f1.Pack().Apply(m) != f2.Pack().Apply(m) {
		t.Fatal("same /24 must match")
	}
	if f1.Pack().Apply(m) == f3.Pack().Apply(m) {
		t.Fatal("different /24 must not match")
	}
}

func TestMaskCoversAndUnion(t *testing.T) {
	narrow := NewMaskBuilder().EthType().Build()
	wide := NewMaskBuilder().EthType().IPProto().TPDst().Build()
	if wide.Union(narrow) != wide {
		t.Fatal("wide must cover narrow")
	}
	if narrow.Union(wide) == narrow {
		t.Fatal("narrow must not cover wide")
	}
	u := narrow.Union(NewMaskBuilder().IPProto().TPDst().Build())
	if u != wide {
		t.Fatal("union mismatch")
	}
	if (Mask{}).Bits() != 0 {
		t.Fatal("empty mask has no bits")
	}
	if MaskAll().Union(wide) != MaskAll() {
		t.Fatal("MaskAll covers everything")
	}
}

func TestHashDistribution(t *testing.T) {
	// Hashes of sequential flows must spread evenly across buckets.
	const n, buckets = 8192, 16
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		f := Fields{IP4Src: hdr.IP4(0x0a000000 + uint32(i)), IP4Dst: ipB,
			IPProto: hdr.IPProtoUDP, TPSrc: uint16(i), TPDst: 80}
		k := f.Pack()
		counts[k.Hash(0)%buckets]++
	}
	for i, c := range counts {
		if c < n/buckets*7/10 || c > n/buckets*13/10 {
			t.Fatalf("bucket %d has %d, want ~%d", i, c, n/buckets)
		}
	}
}

func TestHashBasisChangesHash(t *testing.T) {
	k := Extract(udpPacket())
	if k.Hash(1) == k.Hash(2) {
		t.Fatal("different bases should give different hashes")
	}
}

// TestExtractIntoOverwritesKey: the fast path reuses key storage from packet
// to packet, so ExtractInto must leave no word of the previous contents —
// whichever layer the parse stops at.
func TestExtractIntoOverwritesKey(t *testing.T) {
	frame := hdr.NewBuilder().Eth(macA, macB).VLAN(7, 1).IPv4H(ipA, ipB, 64).TCPH(1, 2, 3, 4, hdr.TCPSyn).Build()
	for n := 0; n <= len(frame); n++ {
		p := packet.New(frame[:n:n])
		p.InPort, p.CtZone = 3, 9
		var dirty Key
		for i := range dirty {
			dirty[i] = ^uint64(0)
		}
		ExtractInto(p, &dirty)
		if want := Extract(p); dirty != want {
			t.Fatalf("%d-byte prefix: reused key = %v, fresh key = %v", n, dirty, want)
		}
	}
}

func TestRSSHashStablePerFlow(t *testing.T) {
	a := Extract(udpPacket())
	b := Extract(udpPacket())
	if RSSHash(&a) != RSSHash(&b) {
		t.Fatal("same flow must hash identically")
	}
	// Different ports => different flow => (almost surely) different hash.
	other := hdr.NewBuilder().Eth(macA, macB).IPv4H(ipA, ipB, 64).UDPH(1234, 9999).PayloadLen(18).Build()
	c := Extract(packet.New(other))
	if RSSHash(&a) == RSSHash(&c) {
		t.Fatal("different flows should spread")
	}
}

func TestRSSHashIgnoresEthernet(t *testing.T) {
	// RSS spreads on the 5-tuple; MAC addresses must not matter.
	f1 := hdr.NewBuilder().Eth(macA, macB).IPv4H(ipA, ipB, 64).UDPH(1, 2).PayloadLen(4).Build()
	f2 := hdr.NewBuilder().Eth(macB, macA).IPv4H(ipA, ipB, 64).UDPH(1, 2).PayloadLen(4).Build()
	k1, k2 := Extract(packet.New(f1)), Extract(packet.New(f2))
	if RSSHash(&k1) != RSSHash(&k2) {
		t.Fatal("RSS hash must depend only on the 5-tuple")
	}
}

func TestKeyString(t *testing.T) {
	if Extract(udpPacket()).String() == "" {
		t.Fatal("String must produce output")
	}
}

func BenchmarkExtract(b *testing.B) {
	p := udpPacket()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Extract(p)
	}
}

// BenchmarkExtractInto is the per-packet shape of the fast path: build the
// key where it will be used, then hash it for the first cache.
func BenchmarkExtractInto(b *testing.B) {
	p := udpPacket()
	var k Key
	var sink uint32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ExtractInto(p, &k)
		sink ^= k.Hash(1)
	}
	benchSink = sink
}

var benchSink uint32
