package hdr

import "encoding/binary"

// Builder composes complete frames from the inside out, in the style of
// gopacket's SerializeBuffer: callers describe the layers and Build emits
// the bytes, fixing up length and checksum fields that depend on the
// payload.
type Builder struct {
	eth     *Ethernet
	ip4     *IPv4
	ip6     *IPv6
	udp     *UDP
	tcp     *TCP
	icmp    *ICMP
	arp     *ARP
	payload []byte
	padTo   int
	badCsum bool
}

// NewBuilder returns an empty frame builder.
func NewBuilder() *Builder { return &Builder{} }

// Eth sets the Ethernet layer.
func (f *Builder) Eth(src, dst MAC) *Builder {
	f.eth = &Ethernet{Src: src, Dst: dst}
	return f
}

// VLAN tags the frame with an 802.1Q header.
func (f *Builder) VLAN(vid uint16, prio uint8) *Builder {
	if f.eth == nil {
		f.eth = &Ethernet{}
	}
	f.eth.HasVLAN = true
	f.eth.VLANID = vid
	f.eth.VLANPrio = prio
	return f
}

// IPv4H sets the IPv4 layer.
func (f *Builder) IPv4H(src, dst IP4, ttl uint8) *Builder {
	f.ip4 = &IPv4{Src: src, Dst: dst, TTL: ttl, DontFrag: true}
	return f
}

// IPv6H sets the IPv6 layer.
func (f *Builder) IPv6H(src, dst IP6, hops uint8) *Builder {
	f.ip6 = &IPv6{Src: src, Dst: dst, HopLimit: hops}
	return f
}

// UDPH sets the UDP layer.
func (f *Builder) UDPH(src, dst uint16) *Builder {
	f.udp = &UDP{SrcPort: src, DstPort: dst}
	return f
}

// TCPH sets the TCP layer.
func (f *Builder) TCPH(src, dst uint16, seq, ack uint32, flags uint8) *Builder {
	f.tcp = &TCP{SrcPort: src, DstPort: dst, Seq: seq, Ack: ack, Flags: flags, Window: 65535}
	return f
}

// ICMPH sets the ICMP layer.
func (f *Builder) ICMPH(typ, code uint8, id, seq uint16) *Builder {
	f.icmp = &ICMP{Type: typ, Code: code, ID: id, Seq: seq}
	return f
}

// ARPH sets the ARP layer (mutually exclusive with IP layers).
func (f *Builder) ARPH(op uint16, sMAC MAC, sIP IP4, tMAC MAC, tIP IP4) *Builder {
	f.arp = &ARP{Op: op, SenderMAC: sMAC, SenderIP: sIP, TargetMAC: tMAC, TargetIP: tIP}
	return f
}

// Payload sets the application payload bytes.
func (f *Builder) Payload(p []byte) *Builder {
	f.payload = p
	return f
}

// PayloadLen sets a zero-filled payload of n bytes.
func (f *Builder) PayloadLen(n int) *Builder {
	f.payload = make([]byte, n)
	return f
}

// PadTo pads the final frame with zeros to at least n bytes (e.g. the
// 64-byte Ethernet minimum, which includes the 4-byte FCS the simulation
// does not materialize; use 60 for the on-host view or 64 to mirror the
// paper's quoted sizes).
func (f *Builder) PadTo(n int) *Builder {
	f.padTo = n
	return f
}

// BadL4Checksum corrupts the transport checksum, for tests exercising
// checksum validation and offload paths.
func (f *Builder) BadL4Checksum() *Builder {
	f.badCsum = true
	return f
}

// Build serializes the frame. It panics if the layer combination is
// inconsistent (builder misuse is a programming error, not input error).
func (f *Builder) Build() []byte {
	if f.eth == nil {
		panic("hdr: Build without Ethernet layer")
	}
	// Serialize from the innermost layer outward.
	var l4 []byte
	var proto IPProto
	switch {
	case f.udp != nil:
		proto = IPProtoUDP
		l4 = make([]byte, UDPSize+len(f.payload))
		f.udp.Length = uint16(len(l4))
		f.udp.SerializeTo(l4)
		copy(l4[UDPSize:], f.payload)
	case f.tcp != nil:
		proto = IPProtoTCP
		l4 = make([]byte, TCPMinSize+len(f.payload))
		f.tcp.SerializeTo(l4)
		copy(l4[TCPMinSize:], f.payload)
	case f.icmp != nil:
		proto = IPProtoICMP
		l4 = make([]byte, ICMPSize+len(f.payload))
		copy(l4[ICMPSize:], f.payload)
		f.icmp.SerializeTo(l4)
		if len(f.payload) > 0 {
			l4[2], l4[3] = 0, 0
			binary.BigEndian.PutUint16(l4[2:4], Checksum(l4))
		}
	default:
		l4 = f.payload
	}

	var l3 []byte
	switch {
	case f.arp != nil:
		f.eth.Type = EtherTypeARP
		l3 = make([]byte, ARPSize)
		f.arp.SerializeTo(l3)
	case f.ip4 != nil:
		f.eth.Type = EtherTypeIPv4
		f.ip4.Proto = proto
		f.ip4.TotalLen = uint16(IPv4MinSize + len(l4))
		l3 = make([]byte, IPv4MinSize+len(l4))
		f.ip4.SerializeTo(l3)
		copy(l3[IPv4MinSize:], l4)
		switch proto {
		case IPProtoTCP:
			PutTCPChecksum(f.ip4.Src, f.ip4.Dst, l3[IPv4MinSize:])
		case IPProtoUDP:
			PutUDPChecksum(f.ip4.Src, f.ip4.Dst, l3[IPv4MinSize:])
		}
		if f.badCsum && len(l4) >= UDPSize {
			// Flip a checksum bit to make it invalid.
			csumOff := IPv4MinSize + 16
			if proto == IPProtoUDP {
				csumOff = IPv4MinSize + 6
			}
			l3[csumOff] ^= 0xff
		}
	case f.ip6 != nil:
		f.eth.Type = EtherTypeIPv6
		f.ip6.NextHeader = proto
		f.ip6.PayloadLen = uint16(len(l4))
		l3 = make([]byte, IPv6Size+len(l4))
		f.ip6.SerializeTo(l3)
		copy(l3[IPv6Size:], l4)
	default:
		l3 = l4
	}

	frame := make([]byte, f.eth.SerializedLen()+len(l3))
	n := f.eth.SerializeTo(frame)
	copy(frame[n:], l3)
	if f.padTo > len(frame) {
		padded := make([]byte, f.padTo)
		copy(padded, frame)
		frame = padded
	}
	return frame
}

// EncapGeneve wraps an inner Ethernet frame in outer
// Ethernet/IPv4/UDP/Geneve headers, the encapsulation NSX applies to
// inter-host traffic.
func EncapGeneve(inner []byte, outerSrcMAC, outerDstMAC MAC, outerSrc, outerDst IP4, srcPort uint16, vni uint32, opts []GeneveOption) []byte {
	g := Geneve{VNI: vni, Protocol: EtherTypeTransparentEtherBridging, Options: opts}
	gLen := g.SerializedLen()
	udpLen := UDPSize + gLen + len(inner)
	total := EthernetSize + IPv4MinSize + udpLen
	out := make([]byte, total)

	eth := Ethernet{Src: outerSrcMAC, Dst: outerDstMAC, Type: EtherTypeIPv4}
	off := eth.SerializeTo(out)

	ip := IPv4{Src: outerSrc, Dst: outerDst, TTL: 64, Proto: IPProtoUDP,
		TotalLen: uint16(IPv4MinSize + udpLen), DontFrag: true}
	off += ip.SerializeTo(out[off:])

	udp := UDP{SrcPort: srcPort, DstPort: GenevePort, Length: uint16(udpLen)}
	off += udp.SerializeTo(out[off:])

	off += g.SerializeTo(out[off:])
	copy(out[off:], inner)

	PutUDPChecksum(outerSrc, outerDst, out[EthernetSize+IPv4MinSize:])
	return out
}
