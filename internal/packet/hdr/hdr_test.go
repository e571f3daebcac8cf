package hdr

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

var (
	macA = MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x0a}
	macB = MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x0b}
	ipA  = MakeIP4(10, 0, 0, 1)
	ipB  = MakeIP4(10, 0, 0, 2)
)

func TestEthernetRoundTrip(t *testing.T) {
	e := Ethernet{Dst: macB, Src: macA, Type: EtherTypeIPv4}
	buf := make([]byte, e.SerializedLen())
	if n := e.SerializeTo(buf); n != EthernetSize {
		t.Fatalf("wrote %d bytes, want %d", n, EthernetSize)
	}
	got, err := ParseEthernet(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dst != macB || got.Src != macA || got.Type != EtherTypeIPv4 || got.HasVLAN {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestEthernetVLANRoundTrip(t *testing.T) {
	e := Ethernet{Dst: macB, Src: macA, Type: EtherTypeIPv6, HasVLAN: true, VLANID: 100, VLANPrio: 5}
	buf := make([]byte, e.SerializedLen())
	e.SerializeTo(buf)
	got, err := ParseEthernet(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasVLAN || got.VLANID != 100 || got.VLANPrio != 5 || got.Type != EtherTypeIPv6 {
		t.Fatalf("VLAN round trip mismatch: %+v", got)
	}
	if got.HeaderLen != EthernetSize+VLANSize {
		t.Fatalf("header len = %d", got.HeaderLen)
	}
}

func TestEthernetTruncated(t *testing.T) {
	if _, err := ParseEthernet(make([]byte, 13)); err == nil {
		t.Fatal("want truncation error")
	}
	// VLAN-tagged but too short for the tag.
	b := make([]byte, 14)
	binary.BigEndian.PutUint16(b[12:14], uint16(EtherTypeVLAN))
	if _, err := ParseEthernet(b); err == nil {
		t.Fatal("want truncation error for short VLAN frame")
	}
}

func TestPushPopVLAN(t *testing.T) {
	orig := NewBuilder().Eth(macA, macB).IPv4H(ipA, ipB, 64).UDPH(1000, 2000).PayloadLen(10).Build()
	tagged := PushVLAN(orig, 42, 3)
	e, err := ParseEthernet(tagged)
	if err != nil {
		t.Fatal(err)
	}
	if !e.HasVLAN || e.VLANID != 42 || e.VLANPrio != 3 || e.Type != EtherTypeIPv4 {
		t.Fatalf("push produced %+v", e)
	}
	untagged := PopVLAN(tagged)
	if !bytes.Equal(untagged, orig) {
		t.Fatal("pop did not restore the original frame")
	}
	// Popping an untagged frame is a no-op.
	if got := PopVLAN(orig); !bytes.Equal(got, orig) {
		t.Fatal("pop on untagged frame changed it")
	}
}

func TestSwapEthAddrs(t *testing.T) {
	frame := NewBuilder().Eth(macA, macB).IPv4H(ipA, ipB, 64).UDPH(1, 2).Build()
	SwapEthAddrs(frame)
	if e, _ := ParseEthernet(frame); e.Src != macB || e.Dst != macA || e.Type != EtherTypeIPv4 {
		t.Fatalf("swapped header %+v", e)
	}
	short := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	SwapEthAddrs(short)
	if !bytes.Equal(short, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}) {
		t.Fatal("a frame shorter than two addresses was changed")
	}
}

func TestPrefixMask(t *testing.T) {
	for n, want := range map[int]IP4{-1: 0, 0: 0, 1: 0x80000000, 8: 0xff000000, 24: 0xffffff00, 31: 0xfffffffe, 32: 0xffffffff, 40: 0xffffffff} {
		if got := PrefixMask(n); got != want {
			t.Errorf("PrefixMask(%d) = %#x, want %#x", n, uint32(got), uint32(want))
		}
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	h := IPv4{TOS: 0x10, TotalLen: 60, ID: 7, TTL: 64, Proto: IPProtoTCP, Src: ipA, Dst: ipB, DontFrag: true}
	buf := make([]byte, IPv4MinSize)
	h.SerializeTo(buf)
	got, err := ParseIPv4(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != ipA || got.Dst != ipB || got.Proto != IPProtoTCP || got.TTL != 64 ||
		got.TotalLen != 60 || !got.DontFrag || got.MoreFrag {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if !VerifyIPv4Checksum(buf) {
		t.Fatal("serialized header checksum must validate")
	}
	buf[8]-- // decrement TTL without fixing checksum
	if VerifyIPv4Checksum(buf) {
		t.Fatal("corrupted header checksum must not validate")
	}
}

func TestIPv4Malformed(t *testing.T) {
	buf := make([]byte, IPv4MinSize)
	(&IPv4{Src: ipA, Dst: ipB, TotalLen: 20, TTL: 1}).SerializeTo(buf)
	buf[0] = 6<<4 | 5 // wrong version
	if _, err := ParseIPv4(buf); err == nil {
		t.Fatal("want version error")
	}
	buf[0] = 4<<4 | 3 // IHL too small
	if _, err := ParseIPv4(buf); err == nil {
		t.Fatal("want IHL error")
	}
	buf[0] = 4<<4 | 15 // IHL beyond buffer
	if _, err := ParseIPv4(buf); err == nil {
		t.Fatal("want truncation error")
	}
}

func TestIPv6RoundTrip(t *testing.T) {
	var src, dst IP6
	src[15], dst[15] = 1, 2
	h := IPv6{TrafficClass: 3, FlowLabel: 0x12345, PayloadLen: 100, NextHeader: IPProtoUDP, HopLimit: 64, Src: src, Dst: dst}
	buf := make([]byte, IPv6Size)
	h.SerializeTo(buf)
	got, err := ParseIPv6(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.FlowLabel != 0x12345 || got.TrafficClass != 3 || got.NextHeader != IPProtoUDP ||
		got.Src != src || got.Dst != dst || got.PayloadLen != 100 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	h := TCP{SrcPort: 80, DstPort: 12345, Seq: 111, Ack: 222, Flags: TCPSyn | TCPAck, Window: 4096}
	buf := make([]byte, TCPMinSize)
	h.SerializeTo(buf)
	got, err := ParseTCP(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 80 || got.DstPort != 12345 || got.Seq != 111 || got.Ack != 222 ||
		got.Flags != TCPSyn|TCPAck || got.Window != 4096 || got.HeaderLen != TCPMinSize {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	h := UDP{SrcPort: 53, DstPort: 5353, Length: 20}
	buf := make([]byte, UDPSize)
	h.SerializeTo(buf)
	got, err := ParseUDP(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 53 || got.DstPort != 5353 || got.Length != 20 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// Length below header size is malformed.
	binary.BigEndian.PutUint16(buf[4:6], 4)
	if _, err := ParseUDP(buf); err == nil {
		t.Fatal("want malformed error")
	}
}

func TestICMPRoundTrip(t *testing.T) {
	h := ICMP{Type: ICMPEchoRequest, ID: 99, Seq: 5}
	buf := make([]byte, ICMPSize)
	h.SerializeTo(buf)
	got, err := ParseICMP(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != ICMPEchoRequest || got.ID != 99 || got.Seq != 5 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if Checksum(buf) != 0 {
		t.Fatal("ICMP checksum must validate over serialized header")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example-style vector: a canonical IPv4 header.
	raw := []byte{
		0x45, 0x00, 0x00, 0x3c, 0x1c, 0x46, 0x40, 0x00,
		0x40, 0x06, 0x00, 0x00, 0xac, 0x10, 0x0a, 0x63,
		0xac, 0x10, 0x0a, 0x0c,
	}
	if got := Checksum(raw); got != 0xb1e6 {
		t.Fatalf("checksum = %#04x, want 0xb1e6", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	if Checksum([]byte{0x01}) != ^uint16(0x0100) {
		t.Fatal("odd-length checksum must pad with zero")
	}
}

func TestL4ChecksumRoundTrip(t *testing.T) {
	payload := []byte("hello world")
	seg := make([]byte, TCPMinSize+len(payload))
	(&TCP{SrcPort: 1, DstPort: 2, Seq: 3}).SerializeTo(seg)
	copy(seg[TCPMinSize:], payload)
	PutTCPChecksum(ipA, ipB, seg)
	if !VerifyL4Checksum(ipA, ipB, IPProtoTCP, seg) {
		t.Fatal("TCP checksum must validate")
	}
	seg[TCPMinSize] ^= 1
	if VerifyL4Checksum(ipA, ipB, IPProtoTCP, seg) {
		t.Fatal("corrupted TCP payload must not validate")
	}
}

func TestUDPZeroChecksumAccepted(t *testing.T) {
	d := make([]byte, UDPSize+4)
	(&UDP{SrcPort: 1, DstPort: 2, Length: uint16(len(d))}).SerializeTo(d)
	if !VerifyL4Checksum(ipA, ipB, IPProtoUDP, d) {
		t.Fatal("zero UDP checksum means 'not computed' and must be accepted")
	}
	PutUDPChecksum(ipA, ipB, d)
	if binary.BigEndian.Uint16(d[6:8]) == 0 {
		t.Fatal("computed UDP checksum must never be transmitted as zero")
	}
	if !VerifyL4Checksum(ipA, ipB, IPProtoUDP, d) {
		t.Fatal("computed UDP checksum must validate")
	}
}

func TestChecksumIncrementalProperty(t *testing.T) {
	// One's-complement sum is invariant to byte-pair swaps at 16-bit
	// granularity: checksum(a++b) == checksum(b++a).
	f := func(a, b []byte) bool {
		if len(a)%2 == 1 {
			a = append(a, 0)
		}
		if len(b)%2 == 1 {
			b = append(b, 0)
		}
		ab := append(append([]byte{}, a...), b...)
		ba := append(append([]byte{}, b...), a...)
		return Checksum(ab) == Checksum(ba)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestARPRoundTrip(t *testing.T) {
	a := ARP{Op: ARPRequest, SenderMAC: macA, SenderIP: ipA, TargetIP: ipB}
	buf := make([]byte, ARPSize)
	a.SerializeTo(buf)
	got, err := ParseARP(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != ARPRequest || got.SenderMAC != macA || got.SenderIP != ipA || got.TargetIP != ipB {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestGeneveRoundTrip(t *testing.T) {
	g := Geneve{VNI: 0xABCDE, Protocol: EtherTypeTransparentEtherBridging,
		Options: []GeneveOption{{Class: 0x0104, Type: 1, Data: []byte{1, 2, 3, 4}}}}
	buf := make([]byte, g.SerializedLen())
	g.SerializeTo(buf)
	got, err := ParseGeneve(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.VNI != 0xABCDE || got.Protocol != EtherTypeTransparentEtherBridging {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if len(got.Options) != 1 || got.Options[0].Class != 0x0104 || !bytes.Equal(got.Options[0].Data, []byte{1, 2, 3, 4}) {
		t.Fatalf("options mismatch: %+v", got.Options)
	}
	if got.HeaderLen != GeneveMinSize+8 {
		t.Fatalf("header len = %d", got.HeaderLen)
	}
}

func TestVXLANRoundTrip(t *testing.T) {
	v := VXLAN{VNI: 5000}
	buf := make([]byte, VXLANSize)
	v.SerializeTo(buf)
	got, err := ParseVXLAN(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.VNI != 5000 {
		t.Fatalf("VNI = %d", got.VNI)
	}
	buf[0] = 0 // clear I flag
	if _, err := ParseVXLAN(buf); err == nil {
		t.Fatal("want I-flag error")
	}
}

func TestGRERoundTrip(t *testing.T) {
	g := GRE{Protocol: EtherTypeTransparentEtherBridging, HasKey: true, Key: 77, HasSeq: true, Seq: 3}
	buf := make([]byte, g.SerializedLen())
	g.SerializeTo(buf)
	got, err := ParseGRE(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasKey || got.Key != 77 || !got.HasSeq || got.Seq != 3 ||
		got.Protocol != EtherTypeTransparentEtherBridging {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.HeaderLen != 12 {
		t.Fatalf("header len = %d, want 12", got.HeaderLen)
	}
}

func TestBuilderUDPFrame(t *testing.T) {
	frame := NewBuilder().Eth(macA, macB).IPv4H(ipA, ipB, 64).UDPH(1111, 2222).PayloadLen(18).PadTo(64).Build()
	if len(frame) != 64 {
		t.Fatalf("frame len = %d, want 64", len(frame))
	}
	eth, err := ParseEthernet(frame)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := ParseIPv4(frame[eth.HeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyIPv4Checksum(frame[eth.HeaderLen:]) {
		t.Fatal("IP checksum invalid")
	}
	l4 := frame[eth.HeaderLen+ip.HeaderLen : eth.HeaderLen+int(ip.TotalLen)]
	if !VerifyL4Checksum(ip.Src, ip.Dst, ip.Proto, l4) {
		t.Fatal("UDP checksum invalid")
	}
	udp, err := ParseUDP(l4)
	if err != nil {
		t.Fatal(err)
	}
	if udp.SrcPort != 1111 || udp.DstPort != 2222 {
		t.Fatalf("ports = %d,%d", udp.SrcPort, udp.DstPort)
	}
}

func TestBuilderTCPChecksum(t *testing.T) {
	frame := NewBuilder().Eth(macA, macB).IPv4H(ipA, ipB, 64).TCPH(80, 1024, 1, 0, TCPSyn).PayloadLen(100).Build()
	eth, _ := ParseEthernet(frame)
	ip, _ := ParseIPv4(frame[eth.HeaderLen:])
	l4 := frame[eth.HeaderLen+ip.HeaderLen:]
	if !VerifyL4Checksum(ip.Src, ip.Dst, IPProtoTCP, l4) {
		t.Fatal("builder TCP checksum invalid")
	}
}

func TestBuilderBadChecksum(t *testing.T) {
	frame := NewBuilder().Eth(macA, macB).IPv4H(ipA, ipB, 64).UDPH(1, 2).PayloadLen(8).BadL4Checksum().Build()
	eth, _ := ParseEthernet(frame)
	ip, _ := ParseIPv4(frame[eth.HeaderLen:])
	l4 := frame[eth.HeaderLen+ip.HeaderLen:]
	if VerifyL4Checksum(ip.Src, ip.Dst, IPProtoUDP, l4) {
		t.Fatal("BadL4Checksum frame must not validate")
	}
}

func TestGeneveEncapDecap(t *testing.T) {
	inner := NewBuilder().Eth(macA, macB).IPv4H(ipA, ipB, 64).UDPH(5, 6).PayloadLen(32).Build()
	outer := EncapGeneve(inner, macB, macA, MakeIP4(192, 168, 0, 1), MakeIP4(192, 168, 0, 2), 33333, 4097, nil)
	got, vni, err := DecapGeneve(outer)
	if err != nil {
		t.Fatal(err)
	}
	if vni != 4097 {
		t.Fatalf("vni = %d", vni)
	}
	if !bytes.Equal(got, inner) {
		t.Fatal("decap did not recover the inner frame")
	}
	// Outer UDP checksum must validate.
	eth, _ := ParseEthernet(outer)
	ip, _ := ParseIPv4(outer[eth.HeaderLen:])
	if !VerifyL4Checksum(ip.Src, ip.Dst, IPProtoUDP, outer[eth.HeaderLen+ip.HeaderLen:]) {
		t.Fatal("outer UDP checksum invalid")
	}
}

func TestGeneveEncapWithOptions(t *testing.T) {
	inner := NewBuilder().Eth(macA, macB).IPv4H(ipA, ipB, 64).UDPH(5, 6).PayloadLen(4).Build()
	opts := []GeneveOption{{Class: 0x0104, Type: 0x80, Data: []byte{0, 0, 0, 42}}}
	outer := EncapGeneve(inner, macB, macA, ipA, ipB, 1, 7, opts)
	eth, _ := ParseEthernet(outer)
	ip, _ := ParseIPv4(outer[eth.HeaderLen:])
	g, err := ParseGeneve(outer[eth.HeaderLen+ip.HeaderLen+UDPSize:])
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Options) != 1 || g.Options[0].Data[3] != 42 {
		t.Fatalf("options lost: %+v", g.Options)
	}
}

func TestDecapGeneveRejectsNonTunnel(t *testing.T) {
	plain := NewBuilder().Eth(macA, macB).IPv4H(ipA, ipB, 64).UDPH(1, 2).PayloadLen(4).Build()
	if _, _, err := DecapGeneve(plain); err == nil {
		t.Fatal("plain UDP frame must not decap")
	}
	arp := NewBuilder().Eth(macA, Broadcast).ARPH(ARPRequest, macA, ipA, MAC{}, ipB).Build()
	if _, _, err := DecapGeneve(arp); err == nil {
		t.Fatal("ARP frame must not decap")
	}
}

func TestStringFormats(t *testing.T) {
	if ipA.String() != "10.0.0.1" {
		t.Fatalf("IP4 string = %s", ipA)
	}
	if macA.String() != "02:00:00:00:00:0a" {
		t.Fatalf("MAC string = %s", macA)
	}
	if EtherTypeIPv4.String() != "ipv4" || EtherType(0x1234).String() != "0x1234" {
		t.Fatal("EtherType strings wrong")
	}
	if IPProtoTCP.String() != "tcp" || IPProto(200).String() != "proto-200" {
		t.Fatal("IPProto strings wrong")
	}
	var v6 IP6
	v6[0], v6[15] = 0x20, 0x01
	if v6.String() == "" {
		t.Fatal("IP6 string empty")
	}
}

func FuzzParseRobustness(f *testing.F) {
	f.Add(NewBuilder().Eth(macA, macB).IPv4H(ipA, ipB, 64).UDPH(1, 2).PayloadLen(10).Build())
	f.Add([]byte{})
	f.Add(make([]byte, 13))
	f.Fuzz(func(t *testing.T, data []byte) {
		// No parser may panic on arbitrary input.
		if e, err := ParseEthernet(data); err == nil {
			rest := data[e.HeaderLen:]
			switch e.Type {
			case EtherTypeIPv4:
				if ip, err := ParseIPv4(rest); err == nil {
					l4 := rest[ip.HeaderLen:]
					switch ip.Proto {
					case IPProtoTCP:
						ParseTCP(l4)
					case IPProtoUDP:
						if u, err := ParseUDP(l4); err == nil && u.DstPort == GenevePort {
							ParseGeneve(l4[UDPSize:])
						}
					case IPProtoICMP:
						ParseICMP(l4)
					case IPProtoGRE:
						ParseGRE(l4)
					}
				}
			case EtherTypeIPv6:
				ParseIPv6(rest)
			case EtherTypeARP:
				ParseARP(rest)
			}
		}
	})
}
