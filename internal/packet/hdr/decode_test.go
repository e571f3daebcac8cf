package hdr

import "encoding/binary"

// Decoders no datapath calls: the builder writes these headers, and the
// round-trip and robustness tests read them back with these.

// ParseARP decodes an ARP message from b.
func ParseARP(b []byte) (ARP, error) {
	var a ARP
	if len(b) < ARPSize {
		return a, ErrTruncated{"arp", ARPSize, len(b)}
	}
	if binary.BigEndian.Uint16(b[0:2]) != 1 || // Ethernet hardware space
		EtherType(binary.BigEndian.Uint16(b[2:4])) != EtherTypeIPv4 ||
		b[4] != 6 || b[5] != 4 {
		return a, ErrMalformed{"arp", "not IPv4-over-Ethernet"}
	}
	a.Op = binary.BigEndian.Uint16(b[6:8])
	copy(a.SenderMAC[:], b[8:14])
	a.SenderIP = IP4(binary.BigEndian.Uint32(b[14:18]))
	copy(a.TargetMAC[:], b[18:24])
	a.TargetIP = IP4(binary.BigEndian.Uint32(b[24:28]))
	return a, nil
}

// ParseIPv6 decodes an IPv6 fixed header from b.
func ParseIPv6(b []byte) (IPv6, error) {
	var h IPv6
	if len(b) < IPv6Size {
		return h, ErrTruncated{"ipv6", IPv6Size, len(b)}
	}
	if v := b[0] >> 4; v != 6 {
		return h, ErrMalformed{"ipv6", "version is not 6"}
	}
	vtf := binary.BigEndian.Uint32(b[0:4])
	h.TrafficClass = uint8(vtf >> 20)
	h.FlowLabel = vtf & 0xfffff
	h.PayloadLen = binary.BigEndian.Uint16(b[4:6])
	h.NextHeader = IPProto(b[6])
	h.HopLimit = b[7]
	copy(h.Src[:], b[8:24])
	copy(h.Dst[:], b[24:40])
	return h, nil
}

// DecapGeneve validates outer headers and returns the inner frame along
// with the VNI. The tunnel package's decapsulation performs the same checks
// on parsed offsets.
func DecapGeneve(frame []byte) (inner []byte, vni uint32, err error) {
	eth, err := ParseEthernet(frame)
	if err != nil {
		return nil, 0, err
	}
	if eth.Type != EtherTypeIPv4 {
		return nil, 0, ErrMalformed{"geneve outer", "not IPv4"}
	}
	ip, err := ParseIPv4(frame[eth.HeaderLen:])
	if err != nil {
		return nil, 0, err
	}
	if ip.Proto != IPProtoUDP {
		return nil, 0, ErrMalformed{"geneve outer", "not UDP"}
	}
	l4 := frame[eth.HeaderLen+ip.HeaderLen:]
	udp, err := ParseUDP(l4)
	if err != nil {
		return nil, 0, err
	}
	if udp.DstPort != GenevePort {
		return nil, 0, ErrMalformed{"geneve outer", "not the Geneve port"}
	}
	g, err := ParseGeneve(l4[UDPSize:])
	if err != nil {
		return nil, 0, err
	}
	return l4[UDPSize+g.HeaderLen:], g.VNI, nil
}
