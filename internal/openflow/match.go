package openflow

import (
	"encoding/binary"
	"fmt"

	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
)

// The OXM match codec. Which fields exist, their OXM ids, widths and mask
// kinds are rows of flow.MatchFields; this file is the TLV framing around
// them.

// appendUint appends the low n bytes of v, big-endian.
func appendUint(b []byte, v uint64, n int) []byte {
	for i := n - 1; i >= 0; i-- {
		b = append(b, byte(v>>(8*i)))
	}
	return b
}

// readUint reads a big-endian number of up to eight bytes.
func readUint(b []byte) (v uint64) {
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v
}

// EncodeMatch serializes an ofproto match as an OXM match structure
// (ofp_match: type=1, length, TLVs, padded to 8).
func EncodeMatch(m ofproto.Match) []byte {
	spec := flow.SpecOf(m.Key, m.Mask)
	out := []byte{0, 1, 0, 0} // type=1 (OXM); the length is filled in below
	spec.Each(func(r *flow.MatchField, v, mask uint64) {
		if r.OXMClass == 0 || r.OmitZero && v == 0 {
			return
		}
		hasMask, plen := uint8(0), r.Width
		if r.Masked(mask) {
			hasMask, plen = 1, 2*r.Width
		}
		out = binary.BigEndian.AppendUint16(out, r.OXMClass)
		out = append(out, r.WireField(&spec.Value)<<1|hasMask, uint8(plen))
		out = appendUint(out, v, r.Width)
		if hasMask == 1 {
			out = appendUint(out, mask, r.Width)
		}
	})
	// The length includes the 4-byte header but not the padding.
	binary.BigEndian.PutUint16(out[2:4], uint16(len(out)))
	return append(out, make([]byte, pad8(len(out))-len(out))...)
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

	var spec flow.MatchSpec
	for tlvs := b[4:length]; len(tlvs) > 0; {
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
		vlen := plen
		if hasMask {
			vlen = plen / 2
		}
		val, mask := tlvs[4:4+vlen], tlvs[4+vlen:4+plen]
		r := flow.MatchFieldByOXM(class, field)
		if r == nil {
			return zero, 0, fmt.Errorf("openflow: unsupported OXM field %#x/%d", class, field)
		}
		// A TLV's own length byte may contradict the field's width.
		if vlen != r.Width || hasMask && len(mask) != r.Width {
			return zero, 0, fmt.Errorf("openflow: OXM %#x/%d carries %d value bytes, needs %d", class, field, vlen, r.Width)
		}
		spec.Add(r, readUint(val), r.WireMask(readUint(mask), hasMask))
		tlvs = tlvs[4+plen:]
	}
	return ofproto.NewMatch(spec.Value, spec.PackMask()), pad8(length), nil
}
