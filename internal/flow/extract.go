package flow

import (
	"encoding/binary"

	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
)

// Extract is ExtractInto for callers that want the key as a value.
func Extract(p *packet.Packet) (k Key) {
	ExtractInto(p, &k)
	return k
}

// ExtractInto performs the miniflow_extract analog: a single pass over the
// packet's headers that fills the caller's packed Key (every word, whatever
// it held) and records the L3/L4 offsets in the packet metadata. Following
// OVS (and the DecodingLayerParser idiom from gopacket), it decodes only the
// layers it recognizes, stops quietly at the first unparseable byte, and
// never allocates: a malformed or truncated packet simply yields a key that
// matches only as far as it parsed. The per-packet paths call this form so
// the 96-byte key is built where it will be used and never copied out of a
// return slot.
func ExtractInto(p *packet.Packet, k *Key) {
	d := p.Data
	*k = Key{}

	// Metadata words first: they are independent of packet bytes.
	k[wMeta] = uint64(p.InPort)<<32 | uint64(p.RecircID)
	k[wIPMeta] = uint64(p.CtState)<<24 | uint64(p.CtZone)
	if t := p.Tunnel; t != nil {
		k[wTunnel] = uint64(t.VNI)<<32 | uint64(t.DstIP)
		k[wTunSrc] = uint64(t.SrcIP) << 32
	}

	if len(d) < hdr.EthernetSize {
		return
	}
	// Ethernet addresses.
	k[wEthDst] = uint64(d[0])<<56 | uint64(d[1])<<48 | uint64(d[2])<<40 |
		uint64(d[3])<<32 | uint64(d[4])<<24 | uint64(d[5])<<16 |
		uint64(d[6])<<8 | uint64(d[7])
	k[wEthSrc] = uint64(d[8])<<56 | uint64(d[9])<<48 | uint64(d[10])<<40 |
		uint64(d[11])<<32
	etherType := hdr.EtherType(binary.BigEndian.Uint16(d[12:14]))
	off := hdr.EthernetSize
	if etherType == hdr.EtherTypeVLAN {
		if len(d) < off+hdr.VLANSize {
			return
		}
		tci := binary.BigEndian.Uint16(d[14:16])
		k[wEthSrc] |= uint64(VLANPresent | tci&0xefff)
		etherType = hdr.EtherType(binary.BigEndian.Uint16(d[16:18]))
		off += hdr.VLANSize
	}
	k[wEthSrc] |= uint64(etherType) << 16
	p.L3Offset = off

	switch etherType {
	case hdr.EtherTypeIPv4:
		extractIPv4(p, k[:], d, off)
	case hdr.EtherTypeIPv6:
		extractIPv6(p, k[:], d, off)
	case hdr.EtherTypeARP:
		extractARP(k[:], d, off)
	}
}

func extractIPv4(p *packet.Packet, k []uint64, d []byte, off int) {
	if len(d) < off+hdr.IPv4MinSize || d[off]>>4 != 4 {
		return
	}
	ihl := int(d[off]&0x0f) * 4
	if ihl < hdr.IPv4MinSize || len(d) < off+ihl {
		return
	}
	src := binary.BigEndian.Uint32(d[off+12 : off+16])
	dst := binary.BigEndian.Uint32(d[off+16 : off+20])
	k[wIP4] = uint64(src)<<32 | uint64(dst)
	proto := hdr.IPProto(d[off+9])
	tos := d[off+1]
	ttl := d[off+8]
	flags := binary.BigEndian.Uint16(d[off+6 : off+8])
	var frag uint8
	if flags&0x2000 != 0 || flags&0x1fff != 0 {
		if flags&0x1fff != 0 {
			frag = 3 // later fragment: no L4 header
		} else {
			frag = 1 // first fragment
		}
	}
	k[wIPMeta] |= uint64(proto)<<56 | uint64(tos)<<48 | uint64(ttl)<<40 | uint64(frag)<<32
	l4 := off + ihl
	p.L4Offset = l4
	if frag != 3 {
		extractL4(k, d, l4, proto)
	}
}

func extractIPv6(p *packet.Packet, k []uint64, d []byte, off int) {
	if len(d) < off+hdr.IPv6Size || d[off]>>4 != 6 {
		return
	}
	k[wIP6SrcA] = be64(d[off+8 : off+16])
	k[wIP6SrcB] = be64(d[off+16 : off+24])
	k[wIP6DstA] = be64(d[off+24 : off+32])
	k[wIP6DstB] = be64(d[off+32 : off+40])
	proto := hdr.IPProto(d[off+6])
	tc := uint8(binary.BigEndian.Uint32(d[off:off+4]) >> 20)
	hop := d[off+7]
	k[wIPMeta] |= uint64(proto)<<56 | uint64(tc)<<48 | uint64(hop)<<40
	l4 := off + hdr.IPv6Size
	p.L4Offset = l4
	extractL4(k, d, l4, proto)
}

func extractL4(k []uint64, d []byte, off int, proto hdr.IPProto) {
	switch proto {
	case hdr.IPProtoTCP:
		if len(d) < off+hdr.TCPMinSize {
			return
		}
		sp := binary.BigEndian.Uint16(d[off : off+2])
		dp := binary.BigEndian.Uint16(d[off+2 : off+4])
		flags := d[off+13] & 0x3f
		k[wL4] |= uint64(sp)<<48 | uint64(dp)<<32 | uint64(flags)<<24
	case hdr.IPProtoUDP:
		if len(d) < off+hdr.UDPSize {
			return
		}
		sp := binary.BigEndian.Uint16(d[off : off+2])
		dp := binary.BigEndian.Uint16(d[off+2 : off+4])
		k[wL4] |= uint64(sp)<<48 | uint64(dp)<<32
	case hdr.IPProtoICMP, hdr.IPProtoICMPv6:
		if len(d) < off+2 {
			return
		}
		k[wL4] |= uint64(d[off])<<16 | uint64(d[off+1])<<8
	}
}

func extractARP(k []uint64, d []byte, off int) {
	if len(d) < off+hdr.ARPSize {
		return
	}
	// OVS maps the ARP opcode into the nw_proto slot and SPA/TPA into the
	// nw_src/nw_dst slots.
	op := binary.BigEndian.Uint16(d[off+6 : off+8])
	spa := binary.BigEndian.Uint32(d[off+14 : off+18])
	tpa := binary.BigEndian.Uint32(d[off+24 : off+28])
	k[wIPMeta] |= uint64(uint8(op)) << 56
	k[wIP4] = uint64(spa)<<32 | uint64(tpa)
}

// RSSHash computes the 5-tuple receive-side-scaling hash the NIC applies to
// spread flows across queues, and that OVS computes in software when the
// hardware hash is unavailable over AF_XDP (Section 5.5).
func RSSHash(k *Key) uint32 {
	// Hash only the addressing words so that the hash is symmetric-free
	// but stable per flow: IPv4/IPv6 addresses, protocol, ports.
	h := uint64(0x2d358dccaa6c78a5)
	for _, w := range [...]uint64{k[wIP4], k[wIPMeta] >> 56, k[wL4] >> 32,
		k[wIP6SrcA], k[wIP6SrcB], k[wIP6DstA], k[wIP6DstB]} {
		h ^= w
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	return uint32(h)
}
