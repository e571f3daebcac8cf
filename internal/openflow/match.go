package openflow

import (
	"encoding/binary"
	"fmt"

	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet/hdr"
)

// OXM class and field numbers (OpenFlow basic class, plus the Nicira
// extensions OVS uses for conntrack and tunnel endpoint fields).
const (
	oxmClassBasic  = 0x8000
	oxmClassNicira = 0x0001 // NXM_1
)

// OXM basic fields.
const (
	oxmInPort   = 0
	oxmEthDst   = 3
	oxmEthSrc   = 4
	oxmEthType  = 5
	oxmVlanVID  = 6
	oxmIPProto  = 10
	oxmIPv4Src  = 11
	oxmIPv4Dst  = 12
	oxmTCPSrc   = 13
	oxmTCPDst   = 14
	oxmUDPSrc   = 15
	oxmUDPDst   = 16
	oxmTunnelID = 38
)

// Nicira extension fields.
const (
	nxmCtState    = 105
	nxmCtZone     = 106
	nxmCtMark     = 107
	nxmTunIPv4Src = 31
	nxmTunIPv4Dst = 32
	nxmRecircID   = 108
)

// oxmID names one OXM field; oxmValueLen is the value width of every field
// the decoders accept, which a TLV's own length byte may contradict.
type oxmID struct {
	class uint16
	field uint8
}

var oxmValueLen = map[oxmID]int{
	{oxmClassBasic, oxmInPort}: 4, {oxmClassBasic, oxmEthDst}: 6, {oxmClassBasic, oxmEthSrc}: 6,
	{oxmClassBasic, oxmEthType}: 2, {oxmClassBasic, oxmVlanVID}: 2, {oxmClassBasic, oxmIPProto}: 1,
	{oxmClassBasic, oxmIPv4Src}: 4, {oxmClassBasic, oxmIPv4Dst}: 4,
	{oxmClassBasic, oxmTCPSrc}: 2, {oxmClassBasic, oxmTCPDst}: 2,
	{oxmClassBasic, oxmUDPSrc}: 2, {oxmClassBasic, oxmUDPDst}: 2, {oxmClassBasic, oxmTunnelID}: 8,
	{oxmClassNicira, nxmCtState}: 1, {oxmClassNicira, nxmCtZone}: 2, {oxmClassNicira, nxmCtMark}: 4,
	{oxmClassNicira, nxmTunIPv4Src}: 4, {oxmClassNicira, nxmTunIPv4Dst}: 4, {oxmClassNicira, nxmRecircID}: 4,
}

// EncodeMatch serializes an ofproto match as an OXM match structure
// (ofp_match: type=1, length, TLVs, padded to 8).
func EncodeMatch(m ofproto.Match) []byte {
	f := m.Key.Unpack()
	var tlvs []byte
	add := func(class uint16, field uint8, value []byte, mask []byte) {
		hasMask := uint8(0)
		if mask != nil {
			hasMask = 1
		}
		tlv := make([]byte, 4+len(value)+len(mask))
		binary.BigEndian.PutUint16(tlv[0:2], class)
		tlv[2] = field<<1 | hasMask
		tlv[3] = uint8(len(value) + len(mask))
		copy(tlv[4:], value)
		copy(tlv[4+len(value):], mask)
		tlvs = append(tlvs, tlv...)
	}
	u16 := func(v uint16) []byte { b := make([]byte, 2); binary.BigEndian.PutUint16(b, v); return b }
	u32 := func(v uint32) []byte { b := make([]byte, 4); binary.BigEndian.PutUint32(b, v); return b }
	u64 := func(v uint64) []byte { b := make([]byte, 8); binary.BigEndian.PutUint64(b, v); return b }

	// Probe the mask by checking whether each field's bits survive it.
	has := func(build func(*flow.MaskBuilder) *flow.MaskBuilder) bool {
		probe := build(flow.NewMaskBuilder()).Build()
		return m.Mask.Covers(probe)
	}

	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.InPort() }) {
		add(oxmClassBasic, oxmInPort, u32(f.InPort), nil)
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.RecircID() }) && f.RecircID != 0 {
		add(oxmClassNicira, nxmRecircID, u32(f.RecircID), nil)
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.EthDst() }) {
		add(oxmClassBasic, oxmEthDst, f.EthDst[:], nil)
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.EthSrc() }) {
		add(oxmClassBasic, oxmEthSrc, f.EthSrc[:], nil)
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.EthType() }) {
		add(oxmClassBasic, oxmEthType, u16(uint16(f.EthType)), nil)
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.VLAN() }) {
		add(oxmClassBasic, oxmVlanVID, u16(f.VLANTCI), nil)
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.IPProto() }) {
		add(oxmClassBasic, oxmIPProto, []byte{uint8(f.IPProto)}, nil)
	}
	// IPv4 prefixes: emit with mask when partially masked.
	srcMaskBits := ipv4MaskBits(m.Mask, true)
	if srcMaskBits == 32 {
		add(oxmClassBasic, oxmIPv4Src, u32(uint32(f.IP4Src)), nil)
	} else if srcMaskBits > 0 {
		add(oxmClassBasic, oxmIPv4Src, u32(uint32(f.IP4Src)), u32(prefix32(srcMaskBits)))
	}
	dstMaskBits := ipv4MaskBits(m.Mask, false)
	if dstMaskBits == 32 {
		add(oxmClassBasic, oxmIPv4Dst, u32(uint32(f.IP4Dst)), nil)
	} else if dstMaskBits > 0 {
		add(oxmClassBasic, oxmIPv4Dst, u32(uint32(f.IP4Dst)), u32(prefix32(dstMaskBits)))
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.TPSrc() }) {
		if f.IPProto == hdr.IPProtoUDP {
			add(oxmClassBasic, oxmUDPSrc, u16(f.TPSrc), nil)
		} else {
			add(oxmClassBasic, oxmTCPSrc, u16(f.TPSrc), nil)
		}
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.TPDst() }) {
		if f.IPProto == hdr.IPProtoUDP {
			add(oxmClassBasic, oxmUDPDst, u16(f.TPDst), nil)
		} else {
			add(oxmClassBasic, oxmTCPDst, u16(f.TPDst), nil)
		}
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.TunVNI() }) {
		add(oxmClassBasic, oxmTunnelID, u64(uint64(f.TunVNI)), nil)
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.TunSrc() }) {
		add(oxmClassNicira, nxmTunIPv4Src, u32(uint32(f.TunSrc)), nil)
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.TunDst() }) {
		add(oxmClassNicira, nxmTunIPv4Dst, u32(uint32(f.TunDst)), nil)
	}
	// ct_state is matched with an explicit bit mask.
	ctBits := ctStateMaskBits(m.Mask)
	if ctBits != 0 {
		add(oxmClassNicira, nxmCtState, []byte{f.CtState}, []byte{ctBits})
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.CtZone() }) {
		add(oxmClassNicira, nxmCtZone, u16(f.CtZone), nil)
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.CtMark() }) {
		add(oxmClassNicira, nxmCtMark, u32(f.CtMark), nil)
	}

	// ofp_match header: type=1 (OXM), length includes the 4-byte header
	// but not the padding.
	length := 4 + len(tlvs)
	out := make([]byte, pad8(length))
	binary.BigEndian.PutUint16(out[0:2], 1)
	binary.BigEndian.PutUint16(out[2:4], uint16(length))
	copy(out[4:], tlvs)
	return out
}

// DecodeMatch parses an OXM match structure, returning the ofproto match
// and the total bytes consumed (including padding).
func DecodeMatch(b []byte) (ofproto.Match, int, error) {
	var zero ofproto.Match
	if len(b) < 4 {
		return zero, 0, fmt.Errorf("openflow: match too short")
	}
	if binary.BigEndian.Uint16(b[0:2]) != 1 {
		return zero, 0, fmt.Errorf("openflow: unsupported match type")
	}
	length := int(binary.BigEndian.Uint16(b[2:4]))
	if length < 4 || pad8(length) > len(b) {
		return zero, 0, fmt.Errorf("openflow: match length %d overruns buffer", length)
	}
	tlvs := b[4:length]

	var f flow.Fields
	mb := flow.NewMaskBuilder()
	var extraMask flow.Mask

	for len(tlvs) > 0 {
		if len(tlvs) < 4 {
			return zero, 0, fmt.Errorf("openflow: truncated OXM TLV")
		}
		class := binary.BigEndian.Uint16(tlvs[0:2])
		field := tlvs[2] >> 1
		hasMask := tlvs[2]&1 == 1
		plen := int(tlvs[3])
		if len(tlvs) < 4+plen {
			return zero, 0, fmt.Errorf("openflow: OXM payload overruns TLV")
		}
		payload := tlvs[4 : 4+plen]
		vlen := plen
		if hasMask {
			vlen = plen / 2
		}
		val := payload[:vlen]
		var mask []byte
		if hasMask {
			mask = payload[vlen:]
		}
		// An unknown field falls through to the switch's own error.
		if want, ok := oxmValueLen[oxmID{class, field}]; ok && (vlen != want || hasMask && len(mask) != want) {
			return zero, 0, fmt.Errorf("openflow: OXM %#x/%d carries %d value bytes, needs %d", class, field, vlen, want)
		}

		switch {
		case class == oxmClassBasic:
			switch field {
			case oxmInPort:
				f.InPort = binary.BigEndian.Uint32(val)
				mb.InPort()
			case oxmEthDst:
				copy(f.EthDst[:], val)
				mb.EthDst()
			case oxmEthSrc:
				copy(f.EthSrc[:], val)
				mb.EthSrc()
			case oxmEthType:
				f.EthType = hdr.EtherType(binary.BigEndian.Uint16(val))
				mb.EthType()
			case oxmVlanVID:
				f.VLANTCI = binary.BigEndian.Uint16(val)
				mb.VLAN()
			case oxmIPProto:
				f.IPProto = hdr.IPProto(val[0])
				mb.IPProto()
			case oxmIPv4Src:
				f.IP4Src = hdr.IP4(binary.BigEndian.Uint32(val))
				mb.IP4Src(maskBits(mask))
			case oxmIPv4Dst:
				f.IP4Dst = hdr.IP4(binary.BigEndian.Uint32(val))
				mb.IP4Dst(maskBits(mask))
			case oxmTCPSrc, oxmUDPSrc:
				f.TPSrc = binary.BigEndian.Uint16(val)
				mb.TPSrc()
			case oxmTCPDst, oxmUDPDst:
				f.TPDst = binary.BigEndian.Uint16(val)
				mb.TPDst()
			case oxmTunnelID:
				f.TunVNI = uint32(binary.BigEndian.Uint64(val))
				mb.TunVNI()
			default:
				return zero, 0, fmt.Errorf("openflow: unsupported OXM basic field %d", field)
			}
		case class == oxmClassNicira:
			switch field {
			case nxmCtState:
				f.CtState = val[0]
				bits := uint8(0xff)
				if mask != nil {
					bits = mask[0]
				}
				extraMask = extraMask.Union(flow.NewMaskBuilder().CtState(bits).Build())
			case nxmCtZone:
				f.CtZone = binary.BigEndian.Uint16(val)
				mb.CtZone()
			case nxmCtMark:
				f.CtMark = binary.BigEndian.Uint32(val)
				mb.CtMark()
			case nxmTunIPv4Src:
				f.TunSrc = hdr.IP4(binary.BigEndian.Uint32(val))
				mb.TunSrc()
			case nxmTunIPv4Dst:
				f.TunDst = hdr.IP4(binary.BigEndian.Uint32(val))
				mb.TunDst()
			case nxmRecircID:
				f.RecircID = binary.BigEndian.Uint32(val)
				mb.RecircID()
			default:
				return zero, 0, fmt.Errorf("openflow: unsupported NXM field %d", field)
			}
		default:
			return zero, 0, fmt.Errorf("openflow: unsupported OXM class %#x", class)
		}
		tlvs = tlvs[4+plen:]
	}
	mask := mb.Build().Union(extraMask)
	return ofproto.NewMatch(f, mask), pad8(length), nil
}

// ipv4MaskBits inspects the packed mask's IPv4 src/dst bits and returns the
// prefix length, assuming contiguous prefixes (the only form the builder
// produces).
func ipv4MaskBits(m flow.Mask, src bool) int {
	for bits := 32; bits >= 1; bits-- {
		var probe flow.Mask
		if src {
			probe = flow.NewMaskBuilder().IP4Src(bits).Build()
		} else {
			probe = flow.NewMaskBuilder().IP4Dst(bits).Build()
		}
		if m.Covers(probe) {
			return bits
		}
	}
	return 0
}

// ctStateMaskBits extracts the ct_state bits the mask matches.
func ctStateMaskBits(m flow.Mask) uint8 {
	var bits uint8
	for b := 0; b < 8; b++ {
		probe := flow.NewMaskBuilder().CtState(1 << b).Build()
		if m.Covers(probe) {
			bits |= 1 << b
		}
	}
	return bits
}

func maskBits(mask []byte) int {
	if mask == nil {
		return 32
	}
	v := binary.BigEndian.Uint32(mask)
	n := 0
	for v&0x80000000 != 0 {
		n++
		v <<= 1
	}
	return n
}

func prefix32(n int) uint32 {
	if n <= 0 {
		return 0
	}
	if n >= 32 {
		return ^uint32(0)
	}
	return ^uint32(0) << (32 - n)
}
