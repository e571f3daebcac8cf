// Package tunnel implements the L3 encapsulations NSX relies on — Geneve
// (its default), VXLAN, and GRE — as OVS userspace implementations
// (Section 4: the kernel's encapsulations are unavailable once packet
// processing leaves the kernel, so "OVS implements all of these in
// userspace too").
//
// Encapsulation needs IP routing and ARP for the outer header; those come
// from the netlinksim userspace replica cache, mirroring how OVS resolves
// tunnel next hops from its cached kernel tables.
package tunnel

import (
	"fmt"

	"ovsxdp/internal/flow"
	"ovsxdp/internal/netlinksim"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
)

// Kind is the encapsulation protocol.
type Kind int

// Tunnel kinds.
const (
	Geneve Kind = iota
	VXLAN
	GRE
	// ERSPAN is the type-II encapsulation whose out-of-tree backport
	// cost the paper's Section 2.1.1 quantifies ("about 50 lines of
	// code in the kernel module ... over 5,000 lines [out-of-tree]"):
	// a GRE tunnel with sequence numbers and an ERSPAN header carrying
	// the session id.
	ERSPAN
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Geneve:
		return "geneve"
	case VXLAN:
		return "vxlan"
	case ERSPAN:
		return "erspan"
	default:
		return "gre"
	}
}

// Config describes one tunnel.
type Config struct {
	Kind     Kind
	LocalIP  hdr.IP4
	RemoteIP hdr.IP4
	VNI      uint32
	// Options are Geneve TLVs (NSX carries its virtual network context
	// here).
	Options []hdr.GeneveOption
}

// Encapper wraps packets using next hops resolved from the replica cache.
type Encapper struct {
	cache  *netlinksim.Cache
	erspan erspanState
}

// NewEncapper builds an encapper over the replica cache.
func NewEncapper(cache *netlinksim.Cache) *Encapper {
	return &Encapper{cache: cache}
}

// ErrNoRoute reports an unresolvable tunnel destination.
type ErrNoRoute struct{ Dst hdr.IP4 }

func (e ErrNoRoute) Error() string {
	return fmt.Sprintf("tunnel: no route/ARP entry for remote %s", e.Dst)
}

// Encap wraps p's frame for the tunnel and returns the outer packet (a new
// packet; p is not modified). The outer source port is derived from the
// inner flow's RSS hash so that underlay RSS spreads distinct inner flows,
// as real OVS does.
func (e *Encapper) Encap(p *packet.Packet, cfg Config) (*packet.Packet, error) {
	link, dstMAC, ok := e.cache.ResolveNextHop(cfg.RemoteIP)
	if !ok {
		return nil, ErrNoRoute{cfg.RemoteIP}
	}
	key := flow.Extract(p)
	srcPort := uint16(0xC000 | (flow.RSSHash(&key) & 0x3FFF))

	var outer []byte
	switch cfg.Kind {
	case Geneve:
		outer = hdr.EncapGeneve(p.Data, link.MAC, dstMAC, cfg.LocalIP, cfg.RemoteIP, srcPort, cfg.VNI, cfg.Options)
	case VXLAN:
		outer = encapVXLAN(p.Data, link.MAC, dstMAC, cfg.LocalIP, cfg.RemoteIP, srcPort, cfg.VNI)
	case GRE:
		outer = encapGRE(p.Data, link.MAC, dstMAC, cfg.LocalIP, cfg.RemoteIP, cfg.VNI)
	case ERSPAN:
		outer = e.encapERSPAN(p.Data, link.MAC, dstMAC, cfg.LocalIP, cfg.RemoteIP, cfg.VNI)
	default:
		return nil, fmt.Errorf("tunnel: unknown kind %d", cfg.Kind)
	}
	out := packet.New(outer)
	out.Metadata = p.Metadata
	out.L3Offset = hdr.EthernetSize
	out.L4Offset = hdr.EthernetSize + hdr.IPv4MinSize
	out.Tunnel = nil
	return out, nil
}

func encapVXLAN(inner []byte, srcMAC, dstMAC hdr.MAC, src, dst hdr.IP4, srcPort uint16, vni uint32) []byte {
	udpLen := hdr.UDPSize + hdr.VXLANSize + len(inner)
	out := make([]byte, hdr.EthernetSize+hdr.IPv4MinSize+udpLen)
	eth := hdr.Ethernet{Src: srcMAC, Dst: dstMAC, Type: hdr.EtherTypeIPv4}
	off := eth.SerializeTo(out)
	ip := hdr.IPv4{Src: src, Dst: dst, TTL: 64, Proto: hdr.IPProtoUDP,
		TotalLen: uint16(hdr.IPv4MinSize + udpLen), DontFrag: true}
	off += ip.SerializeTo(out[off:])
	udp := hdr.UDP{SrcPort: srcPort, DstPort: hdr.VXLANPort, Length: uint16(udpLen)}
	off += udp.SerializeTo(out[off:])
	v := hdr.VXLAN{VNI: vni}
	off += v.SerializeTo(out[off:])
	copy(out[off:], inner)
	hdr.PutUDPChecksum(src, dst, out[hdr.EthernetSize+hdr.IPv4MinSize:])
	return out
}

func encapGRE(inner []byte, srcMAC, dstMAC hdr.MAC, src, dst hdr.IP4, key uint32) []byte {
	g := hdr.GRE{Protocol: hdr.EtherTypeTransparentEtherBridging, HasKey: true, Key: key}
	gLen := g.SerializedLen()
	out := make([]byte, hdr.EthernetSize+hdr.IPv4MinSize+gLen+len(inner))
	eth := hdr.Ethernet{Src: srcMAC, Dst: dstMAC, Type: hdr.EtherTypeIPv4}
	off := eth.SerializeTo(out)
	ip := hdr.IPv4{Src: src, Dst: dst, TTL: 64, Proto: hdr.IPProtoGRE,
		TotalLen: uint16(hdr.IPv4MinSize + gLen + len(inner)), DontFrag: true}
	off += ip.SerializeTo(out[off:])
	off += g.SerializeTo(out[off:])
	copy(out[off:], inner)
	return out
}

// erspanSeq tracks the per-encapper ERSPAN sequence number.
type erspanState struct{ seq uint32 }

// encapERSPAN wraps a mirrored frame in GRE with the sequence-number
// extension and an 8-byte ERSPAN type-II header whose session id is the
// tunnel key.
func (e *Encapper) encapERSPAN(inner []byte, srcMAC, dstMAC hdr.MAC, src, dst hdr.IP4, session uint32) []byte {
	e.erspan.seq++
	g := hdr.GRE{Protocol: hdr.EtherTypeERSPAN, HasSeq: true, Seq: e.erspan.seq}
	gLen := g.SerializedLen()
	const erspanHdr = 8
	out := make([]byte, hdr.EthernetSize+hdr.IPv4MinSize+gLen+erspanHdr+len(inner))
	eth := hdr.Ethernet{Src: srcMAC, Dst: dstMAC, Type: hdr.EtherTypeIPv4}
	off := eth.SerializeTo(out)
	ip := hdr.IPv4{Src: src, Dst: dst, TTL: 64, Proto: hdr.IPProtoGRE,
		TotalLen: uint16(hdr.IPv4MinSize + gLen + erspanHdr + len(inner)), DontFrag: true}
	off += ip.SerializeTo(out[off:])
	off += g.SerializeTo(out[off:])
	// ERSPAN type II: version(4)=1 | vlan(12), cos/en/t | session(10),
	// reserved | index.
	out[off] = 0x10 // version 1 (type II)
	out[off+2] = byte(session >> 8 & 0x03)
	out[off+3] = byte(session)
	off += erspanHdr
	copy(out[off:], inner)
	return out
}

// Decap recognizes and strips a tunnel header, returning the inner packet
// with TunnelInfo metadata attached. The second return reports whether the
// packet was tunneled at all; an error means a tunnel was recognized but
// malformed.
func Decap(p *packet.Packet) (*packet.Packet, bool, error) {
	d := p.Data
	eth, err := hdr.ParseEthernet(d)
	if err != nil || eth.Type != hdr.EtherTypeIPv4 {
		return nil, false, nil
	}
	ip, err := hdr.ParseIPv4(d[eth.HeaderLen:])
	if err != nil {
		return nil, false, nil
	}
	l4 := d[eth.HeaderLen+ip.HeaderLen:]

	switch ip.Proto {
	case hdr.IPProtoUDP:
		udp, err := hdr.ParseUDP(l4)
		if err != nil {
			return nil, false, nil
		}
		switch udp.DstPort {
		case hdr.GenevePort:
			g, err := hdr.ParseGeneve(l4[hdr.UDPSize:])
			if err != nil {
				return nil, true, err
			}
			inner := innerPacket(p, l4[hdr.UDPSize+g.HeaderLen:], ip, g.VNI)
			if len(g.Options) > 0 {
				inner.Tunnel.OptData = append([]byte(nil), g.Options[0].Data...)
			}
			return inner, true, nil
		case hdr.VXLANPort:
			v, err := hdr.ParseVXLAN(l4[hdr.UDPSize:])
			if err != nil {
				return nil, true, err
			}
			return innerPacket(p, l4[hdr.UDPSize+hdr.VXLANSize:], ip, v.VNI), true, nil
		}
		return nil, false, nil
	case hdr.IPProtoGRE:
		g, err := hdr.ParseGRE(l4)
		if err != nil {
			return nil, true, err
		}
		if g.Protocol == hdr.EtherTypeERSPAN {
			const erspanHdr = 8
			if len(l4) < g.HeaderLen+erspanHdr {
				return nil, true, hdr.ErrTruncated{Layer: "erspan", Need: g.HeaderLen + erspanHdr, Have: len(l4)}
			}
			session := uint32(l4[g.HeaderLen+2]&0x03)<<8 | uint32(l4[g.HeaderLen+3])
			return innerPacket(p, l4[g.HeaderLen+erspanHdr:], ip, session), true, nil
		}
		return innerPacket(p, l4[g.HeaderLen:], ip, g.Key), true, nil
	default:
		return nil, false, nil
	}
}

func innerPacket(outer *packet.Packet, payload []byte, outerIP hdr.IPv4, vni uint32) *packet.Packet {
	inner := packet.New(payload)
	inner.InPort = outer.InPort
	inner.Offloads = outer.Offloads
	inner.Tunnel = &packet.TunnelInfo{
		SrcIP: outerIP.Src,
		DstIP: outerIP.Dst,
		VNI:   vni,
	}
	return inner
}
