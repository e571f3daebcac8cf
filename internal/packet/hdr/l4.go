package hdr

import "encoding/binary"

// TCP flag bits.
const (
	TCPFin = 1 << 0
	TCPSyn = 1 << 1
	TCPRst = 1 << 2
	TCPPsh = 1 << 3
	TCPAck = 1 << 4
)

// TCP is a decoded TCP header.
type TCP struct {
	SrcPort   uint16
	DstPort   uint16
	Seq       uint32
	Ack       uint32
	Flags     uint8
	Window    uint16
	Checksum  uint16
	HeaderLen int // 20..60
}

// ParseTCP decodes a TCP header from b.
func ParseTCP(b []byte) (TCP, error) {
	var h TCP
	if len(b) < TCPMinSize {
		return h, ErrTruncated{"tcp", TCPMinSize, len(b)}
	}
	off := int(b[12]>>4) * 4
	if off < TCPMinSize {
		return h, ErrMalformed{"tcp", "data offset below minimum"}
	}
	if len(b) < off {
		return h, ErrTruncated{"tcp options", off, len(b)}
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Seq = binary.BigEndian.Uint32(b[4:8])
	h.Ack = binary.BigEndian.Uint32(b[8:12])
	h.Flags = b[13] & 0x3f
	h.Window = binary.BigEndian.Uint16(b[14:16])
	h.Checksum = binary.BigEndian.Uint16(b[16:18])
	h.HeaderLen = off
	return h, nil
}

// SerializeTo writes a 20-byte TCP header into b with a zero checksum field
// (call FinishTCPChecksum afterwards) and returns the bytes written.
func (h *TCP) SerializeTo(b []byte) int {
	_ = b[TCPMinSize-1]
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint32(b[4:8], h.Seq)
	binary.BigEndian.PutUint32(b[8:12], h.Ack)
	b[12] = 5 << 4
	b[13] = h.Flags & 0x3f
	binary.BigEndian.PutUint16(b[14:16], h.Window)
	b[16], b[17] = 0, 0
	b[18], b[19] = 0, 0 // urgent pointer
	return TCPMinSize
}

// UDP is a decoded UDP header.
type UDP struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16
	Checksum uint16
}

// ParseUDP decodes a UDP header from b.
func ParseUDP(b []byte) (UDP, error) {
	var h UDP
	if len(b) < UDPSize {
		return h, ErrTruncated{"udp", UDPSize, len(b)}
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Length = binary.BigEndian.Uint16(b[4:6])
	if h.Length < UDPSize {
		return h, ErrMalformed{"udp", "length below header size"}
	}
	h.Checksum = binary.BigEndian.Uint16(b[6:8])
	return h, nil
}

// SerializeTo writes the UDP header into b with a zero checksum field and
// returns the bytes written.
func (h *UDP) SerializeTo(b []byte) int {
	_ = b[UDPSize-1]
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint16(b[4:6], h.Length)
	b[6], b[7] = 0, 0
	return UDPSize
}

// ICMP echo types.
const (
	ICMPEchoReply   = 0
	ICMPEchoRequest = 8
)

// ICMP is a decoded ICMPv4 header (echo-oriented).
type ICMP struct {
	Type     uint8
	Code     uint8
	Checksum uint16
	ID       uint16
	Seq      uint16
}

// ParseICMP decodes an ICMP header from b.
func ParseICMP(b []byte) (ICMP, error) {
	var h ICMP
	if len(b) < ICMPSize {
		return h, ErrTruncated{"icmp", ICMPSize, len(b)}
	}
	h.Type = b[0]
	h.Code = b[1]
	h.Checksum = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	h.Seq = binary.BigEndian.Uint16(b[6:8])
	return h, nil
}

// SerializeTo writes the ICMP header into b, computing the checksum over the
// header only (callers appending payload must recompute), and returns the
// bytes written.
func (h *ICMP) SerializeTo(b []byte) int {
	_ = b[ICMPSize-1]
	b[0] = h.Type
	b[1] = h.Code
	b[2], b[3] = 0, 0
	binary.BigEndian.PutUint16(b[4:6], h.ID)
	binary.BigEndian.PutUint16(b[6:8], h.Seq)
	binary.BigEndian.PutUint16(b[2:4], Checksum(b[:ICMPSize]))
	return ICMPSize
}
