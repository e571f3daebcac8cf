package openflow

// The match codec as it stood before flow.MatchFields (PR 23), kept as the
// reference the table-driven EncodeMatch and DecodeMatch are compared with
// (match_diff_test.go): per-field constants, a width table, one stanza per
// field in the encoder, one case arm per field in the decoder, and the mask
// rediscovered by probing.

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
	refOxmClassBasic  = 0x8000
	refOxmClassNicira = 0x0001 // NXM_1
)

// OXM basic fields.
const (
	oxmInPort      = 0
	refOxmEthDst   = 3
	refOxmEthSrc   = 4
	refOxmEthType  = 5
	refOxmVlanVID  = 6
	refOxmIPProto  = 10
	refOxmIPv4Src  = 11
	refOxmIPv4Dst  = 12
	refOxmTCPSrc   = 13
	refOxmTCPDst   = 14
	refOxmUDPSrc   = 15
	refOxmUDPDst   = 16
	refOxmTunnelID = 38
)

// Nicira extension fields.
const (
	refNxmCtState    = 105
	refNxmCtZone     = 106
	refNxmCtMark     = 107
	refNxmTunIPv4Src = 31
	refNxmTunIPv4Dst = 32
	refNxmRecircID   = 108
)

// refOxmID names one OXM field; refOxmValueLen is the value width of every field
// the decoders accept, which a TLV's own length byte may contradict.
type refOxmID struct {
	class uint16
	field uint8
}

var refOxmValueLen = map[refOxmID]int{
	{refOxmClassBasic, oxmInPort}: 4, {refOxmClassBasic, refOxmEthDst}: 6, {refOxmClassBasic, refOxmEthSrc}: 6,
	{refOxmClassBasic, refOxmEthType}: 2, {refOxmClassBasic, refOxmVlanVID}: 2, {refOxmClassBasic, refOxmIPProto}: 1,
	{refOxmClassBasic, refOxmIPv4Src}: 4, {refOxmClassBasic, refOxmIPv4Dst}: 4,
	{refOxmClassBasic, refOxmTCPSrc}: 2, {refOxmClassBasic, refOxmTCPDst}: 2,
	{refOxmClassBasic, refOxmUDPSrc}: 2, {refOxmClassBasic, refOxmUDPDst}: 2, {refOxmClassBasic, refOxmTunnelID}: 8,
	{refOxmClassNicira, refNxmCtState}: 1, {refOxmClassNicira, refNxmCtZone}: 2, {refOxmClassNicira, refNxmCtMark}: 4,
	{refOxmClassNicira, refNxmTunIPv4Src}: 4, {refOxmClassNicira, refNxmTunIPv4Dst}: 4, {refOxmClassNicira, refNxmRecircID}: 4,
}

// refEncodeMatch serializes an ofproto match as an OXM match structure
// (ofp_match: type=1, length, TLVs, padded to 8).
func refEncodeMatch(m ofproto.Match) []byte {
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
		return m.Mask.Union(probe) == m.Mask
	}

	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.InPort() }) {
		add(refOxmClassBasic, oxmInPort, u32(f.InPort), nil)
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.RecircID() }) && f.RecircID != 0 {
		add(refOxmClassNicira, refNxmRecircID, u32(f.RecircID), nil)
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.EthDst() }) {
		add(refOxmClassBasic, refOxmEthDst, f.EthDst[:], nil)
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.EthSrc() }) {
		add(refOxmClassBasic, refOxmEthSrc, f.EthSrc[:], nil)
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.EthType() }) {
		add(refOxmClassBasic, refOxmEthType, u16(uint16(f.EthType)), nil)
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.VLAN() }) {
		add(refOxmClassBasic, refOxmVlanVID, u16(f.VLANTCI), nil)
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.IPProto() }) {
		add(refOxmClassBasic, refOxmIPProto, []byte{uint8(f.IPProto)}, nil)
	}
	// IPv4 prefixes: emit with mask when partially masked.
	srcMaskBits := refIpv4MaskBits(m.Mask, true)
	if srcMaskBits == 32 {
		add(refOxmClassBasic, refOxmIPv4Src, u32(uint32(f.IP4Src)), nil)
	} else if srcMaskBits > 0 {
		add(refOxmClassBasic, refOxmIPv4Src, u32(uint32(f.IP4Src)), u32(refPrefix32(srcMaskBits)))
	}
	dstMaskBits := refIpv4MaskBits(m.Mask, false)
	if dstMaskBits == 32 {
		add(refOxmClassBasic, refOxmIPv4Dst, u32(uint32(f.IP4Dst)), nil)
	} else if dstMaskBits > 0 {
		add(refOxmClassBasic, refOxmIPv4Dst, u32(uint32(f.IP4Dst)), u32(refPrefix32(dstMaskBits)))
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.TPSrc() }) {
		if f.IPProto == hdr.IPProtoUDP {
			add(refOxmClassBasic, refOxmUDPSrc, u16(f.TPSrc), nil)
		} else {
			add(refOxmClassBasic, refOxmTCPSrc, u16(f.TPSrc), nil)
		}
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.TPDst() }) {
		if f.IPProto == hdr.IPProtoUDP {
			add(refOxmClassBasic, refOxmUDPDst, u16(f.TPDst), nil)
		} else {
			add(refOxmClassBasic, refOxmTCPDst, u16(f.TPDst), nil)
		}
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.TunVNI() }) {
		add(refOxmClassBasic, refOxmTunnelID, u64(uint64(f.TunVNI)), nil)
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.TunSrc() }) {
		add(refOxmClassNicira, refNxmTunIPv4Src, u32(uint32(f.TunSrc)), nil)
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.TunDst() }) {
		add(refOxmClassNicira, refNxmTunIPv4Dst, u32(uint32(f.TunDst)), nil)
	}
	// ct_state is matched with an explicit bit mask.
	ctBits := refCtStateMaskBits(m.Mask)
	if ctBits != 0 {
		add(refOxmClassNicira, refNxmCtState, []byte{f.CtState}, []byte{ctBits})
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.CtZone() }) {
		add(refOxmClassNicira, refNxmCtZone, u16(f.CtZone), nil)
	}
	if has(func(b *flow.MaskBuilder) *flow.MaskBuilder { return b.CtMark() }) {
		add(refOxmClassNicira, refNxmCtMark, u32(f.CtMark), nil)
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

// refDecodeMatch parses an OXM match structure, returning the ofproto match
// and the total bytes consumed (including padding).
func refDecodeMatch(b []byte) (ofproto.Match, int, error) {
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
		if want, ok := refOxmValueLen[refOxmID{class, field}]; ok && (vlen != want || hasMask && len(mask) != want) {
			return zero, 0, fmt.Errorf("openflow: OXM %#x/%d carries %d value bytes, needs %d", class, field, vlen, want)
		}

		switch {
		case class == refOxmClassBasic:
			switch field {
			case oxmInPort:
				f.InPort = binary.BigEndian.Uint32(val)
				mb.InPort()
			case refOxmEthDst:
				copy(f.EthDst[:], val)
				mb.EthDst()
			case refOxmEthSrc:
				copy(f.EthSrc[:], val)
				mb.EthSrc()
			case refOxmEthType:
				f.EthType = hdr.EtherType(binary.BigEndian.Uint16(val))
				mb.EthType()
			case refOxmVlanVID:
				f.VLANTCI = binary.BigEndian.Uint16(val)
				mb.VLAN()
			case refOxmIPProto:
				f.IPProto = hdr.IPProto(val[0])
				mb.IPProto()
			case refOxmIPv4Src:
				f.IP4Src = hdr.IP4(binary.BigEndian.Uint32(val))
				mb.IP4Src(refMaskBits(mask))
			case refOxmIPv4Dst:
				f.IP4Dst = hdr.IP4(binary.BigEndian.Uint32(val))
				mb.IP4Dst(refMaskBits(mask))
			case refOxmTCPSrc, refOxmUDPSrc:
				f.TPSrc = binary.BigEndian.Uint16(val)
				mb.TPSrc()
			case refOxmTCPDst, refOxmUDPDst:
				f.TPDst = binary.BigEndian.Uint16(val)
				mb.TPDst()
			case refOxmTunnelID:
				f.TunVNI = uint32(binary.BigEndian.Uint64(val))
				mb.TunVNI()
			default:
				return zero, 0, fmt.Errorf("openflow: unsupported OXM basic field %d", field)
			}
		case class == refOxmClassNicira:
			switch field {
			case refNxmCtState:
				f.CtState = val[0]
				bits := uint8(0xff)
				if mask != nil {
					bits = mask[0]
				}
				extraMask = extraMask.Union(flow.NewMaskBuilder().CtState(bits).Build())
			case refNxmCtZone:
				f.CtZone = binary.BigEndian.Uint16(val)
				mb.CtZone()
			case refNxmCtMark:
				f.CtMark = binary.BigEndian.Uint32(val)
				mb.CtMark()
			case refNxmTunIPv4Src:
				f.TunSrc = hdr.IP4(binary.BigEndian.Uint32(val))
				mb.TunSrc()
			case refNxmTunIPv4Dst:
				f.TunDst = hdr.IP4(binary.BigEndian.Uint32(val))
				mb.TunDst()
			case refNxmRecircID:
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

// refIpv4MaskBits inspects the packed mask's IPv4 src/dst bits and returns the
// prefix length, assuming contiguous prefixes (the only form the builder
// produces).
func refIpv4MaskBits(m flow.Mask, src bool) int {
	for bits := 32; bits >= 1; bits-- {
		var probe flow.Mask
		if src {
			probe = flow.NewMaskBuilder().IP4Src(bits).Build()
		} else {
			probe = flow.NewMaskBuilder().IP4Dst(bits).Build()
		}
		if m.Union(probe) == m {
			return bits
		}
	}
	return 0
}

// refCtStateMaskBits extracts the ct_state bits the mask matches.
func refCtStateMaskBits(m flow.Mask) uint8 {
	var bits uint8
	for b := 0; b < 8; b++ {
		probe := flow.NewMaskBuilder().CtState(1 << b).Build()
		if m.Union(probe) == m {
			bits |= 1 << b
		}
	}
	return bits
}

func refMaskBits(mask []byte) int {
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

func refPrefix32(n int) uint32 {
	if n <= 0 {
		return 0
	}
	if n >= 32 {
		return ^uint32(0)
	}
	return ^uint32(0) << (32 - n)
}
