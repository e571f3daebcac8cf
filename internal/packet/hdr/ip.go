package hdr

import "encoding/binary"

// IPv4 is a decoded IPv4 header.
type IPv4 struct {
	TOS        uint8
	TotalLen   uint16
	ID         uint16
	DontFrag   bool
	MoreFrag   bool
	FragOffset uint16 // in 8-byte units
	TTL        uint8
	Proto      IPProto
	Checksum   uint16
	Src        IP4
	Dst        IP4
	HeaderLen  int // 20..60
}

// ParseIPv4 decodes an IPv4 header from b.
func ParseIPv4(b []byte) (IPv4, error) {
	var h IPv4
	if len(b) < IPv4MinSize {
		return h, ErrTruncated{"ipv4", IPv4MinSize, len(b)}
	}
	if v := b[0] >> 4; v != 4 {
		return h, ErrMalformed{"ipv4", "version is not 4"}
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < IPv4MinSize {
		return h, ErrMalformed{"ipv4", "header length below minimum"}
	}
	if len(b) < ihl {
		return h, ErrTruncated{"ipv4 options", ihl, len(b)}
	}
	h.HeaderLen = ihl
	h.TOS = b[1]
	h.TotalLen = binary.BigEndian.Uint16(b[2:4])
	if int(h.TotalLen) < ihl {
		return h, ErrMalformed{"ipv4", "total length below header length"}
	}
	h.ID = binary.BigEndian.Uint16(b[4:6])
	flags := binary.BigEndian.Uint16(b[6:8])
	h.DontFrag = flags&0x4000 != 0
	h.MoreFrag = flags&0x2000 != 0
	h.FragOffset = flags & 0x1fff
	h.TTL = b[8]
	h.Proto = IPProto(b[9])
	h.Checksum = binary.BigEndian.Uint16(b[10:12])
	h.Src = IP4(binary.BigEndian.Uint32(b[12:16]))
	h.Dst = IP4(binary.BigEndian.Uint32(b[16:20]))
	return h, nil
}

// SerializeTo writes a 20-byte IPv4 header into b with a freshly computed
// checksum and returns the bytes written. HeaderLen and Checksum fields in h
// are ignored; options are not emitted.
func (h *IPv4) SerializeTo(b []byte) int {
	_ = b[IPv4MinSize-1]
	b[0] = 4<<4 | 5
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:4], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:6], h.ID)
	flags := h.FragOffset & 0x1fff
	if h.DontFrag {
		flags |= 0x4000
	}
	if h.MoreFrag {
		flags |= 0x2000
	}
	binary.BigEndian.PutUint16(b[6:8], flags)
	b[8] = h.TTL
	b[9] = uint8(h.Proto)
	b[10], b[11] = 0, 0
	binary.BigEndian.PutUint32(b[12:16], uint32(h.Src))
	binary.BigEndian.PutUint32(b[16:20], uint32(h.Dst))
	csum := Checksum(b[:IPv4MinSize])
	binary.BigEndian.PutUint16(b[10:12], csum)
	return IPv4MinSize
}

// VerifyChecksum recomputes the header checksum over the raw header bytes
// and reports whether it is valid.
func VerifyIPv4Checksum(raw []byte) bool {
	if len(raw) < IPv4MinSize {
		return false
	}
	ihl := int(raw[0]&0x0f) * 4
	if ihl < IPv4MinSize || len(raw) < ihl {
		return false
	}
	return Checksum(raw[:ihl]) == 0
}

// IPv6 is a decoded IPv6 fixed header. Extension headers are not handled by
// the fast path (the datapath treats them as an unparsed payload), matching
// OVS's miniflow extraction behaviour for uncommon cases.
type IPv6 struct {
	TrafficClass uint8
	FlowLabel    uint32
	PayloadLen   uint16
	NextHeader   IPProto
	HopLimit     uint8
	Src          IP6
	Dst          IP6
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

// SerializeTo writes the fixed header into b and returns the bytes written.
func (h *IPv6) SerializeTo(b []byte) int {
	_ = b[IPv6Size-1]
	vtf := uint32(6)<<28 | uint32(h.TrafficClass)<<20 | h.FlowLabel&0xfffff
	binary.BigEndian.PutUint32(b[0:4], vtf)
	binary.BigEndian.PutUint16(b[4:6], h.PayloadLen)
	b[6] = uint8(h.NextHeader)
	b[7] = h.HopLimit
	copy(b[8:24], h.Src[:])
	copy(b[24:40], h.Dst[:])
	return IPv6Size
}
