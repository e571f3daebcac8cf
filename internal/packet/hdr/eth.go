package hdr

import "encoding/binary"

// Ethernet is a decoded Ethernet II header, optionally with one 802.1Q tag.
type Ethernet struct {
	Dst       MAC
	Src       MAC
	Type      EtherType
	HasVLAN   bool
	VLANID    uint16 // 12-bit VID
	VLANPrio  uint8  // 3-bit PCP
	HeaderLen int    // 14 or 18 depending on the VLAN tag
}

// ParseEthernet decodes an Ethernet header (and at most one VLAN tag) from
// the front of b.
func ParseEthernet(b []byte) (Ethernet, error) {
	var e Ethernet
	if len(b) < EthernetSize {
		return e, ErrTruncated{"ethernet", EthernetSize, len(b)}
	}
	copy(e.Dst[:], b[0:6])
	copy(e.Src[:], b[6:12])
	e.Type = EtherType(binary.BigEndian.Uint16(b[12:14]))
	e.HeaderLen = EthernetSize
	if e.Type == EtherTypeVLAN {
		if len(b) < EthernetSize+VLANSize {
			return e, ErrTruncated{"vlan", EthernetSize + VLANSize, len(b)}
		}
		tci := binary.BigEndian.Uint16(b[14:16])
		e.HasVLAN = true
		e.VLANPrio = uint8(tci >> 13)
		e.VLANID = tci & 0x0fff
		e.Type = EtherType(binary.BigEndian.Uint16(b[16:18]))
		e.HeaderLen = EthernetSize + VLANSize
	}
	return e, nil
}

// SerializedLen returns the number of bytes SerializeTo writes.
func (e *Ethernet) SerializedLen() int {
	if e.HasVLAN {
		return EthernetSize + VLANSize
	}
	return EthernetSize
}

// SerializeTo writes the header into b, which must have room for
// SerializedLen bytes, and returns the bytes written.
func (e *Ethernet) SerializeTo(b []byte) int {
	n := e.SerializedLen()
	_ = b[n-1]
	copy(b[0:6], e.Dst[:])
	copy(b[6:12], e.Src[:])
	if e.HasVLAN {
		binary.BigEndian.PutUint16(b[12:14], uint16(EtherTypeVLAN))
		tci := uint16(e.VLANPrio)<<13 | e.VLANID&0x0fff
		binary.BigEndian.PutUint16(b[14:16], tci)
		binary.BigEndian.PutUint16(b[16:18], uint16(e.Type))
	} else {
		binary.BigEndian.PutUint16(b[12:14], uint16(e.Type))
	}
	return n
}

// SwapEthAddrs exchanges a frame's destination and source Ethernet addresses
// in place, as a reflector does; a frame too short for both is left as is.
func SwapEthAddrs(frame []byte) {
	if len(frame) >= 12 {
		var tmp [6]byte
		copy(tmp[:], frame[0:6])
		copy(frame[0:6], frame[6:12])
		copy(frame[6:12], tmp[:])
	}
}

// PushVLAN inserts an 802.1Q tag into frame (in place via copy into a new
// slice) and returns the tagged frame. The frame must start with an untagged
// Ethernet header.
func PushVLAN(frame []byte, vid uint16, prio uint8) []byte {
	out := make([]byte, len(frame)+VLANSize)
	copy(out, frame[:12])
	binary.BigEndian.PutUint16(out[12:14], uint16(EtherTypeVLAN))
	binary.BigEndian.PutUint16(out[14:16], uint16(prio)<<13|vid&0x0fff)
	copy(out[16:], frame[12:])
	return out
}

// PopVLAN removes the outermost 802.1Q tag and returns the untagged frame.
// If the frame has no tag it is returned unchanged.
func PopVLAN(frame []byte) []byte {
	if len(frame) < EthernetSize+VLANSize ||
		EtherType(binary.BigEndian.Uint16(frame[12:14])) != EtherTypeVLAN {
		return frame
	}
	out := make([]byte, len(frame)-VLANSize)
	copy(out, frame[:12])
	copy(out[12:], frame[16:])
	return out
}

// ARP is a decoded IPv4-over-Ethernet ARP message.
type ARP struct {
	Op        uint16 // 1 request, 2 reply
	SenderMAC MAC
	SenderIP  IP4
	TargetMAC MAC
	TargetIP  IP4
}

// ARPRequest is the ARP request opcode.
const ARPRequest = 1

// SerializeTo writes the ARP message into b (at least ARPSize bytes) and
// returns the bytes written.
func (a *ARP) SerializeTo(b []byte) int {
	_ = b[ARPSize-1]
	binary.BigEndian.PutUint16(b[0:2], 1)
	binary.BigEndian.PutUint16(b[2:4], uint16(EtherTypeIPv4))
	b[4], b[5] = 6, 4
	binary.BigEndian.PutUint16(b[6:8], a.Op)
	copy(b[8:14], a.SenderMAC[:])
	binary.BigEndian.PutUint32(b[14:18], uint32(a.SenderIP))
	copy(b[18:24], a.TargetMAC[:])
	binary.BigEndian.PutUint32(b[24:28], uint32(a.TargetIP))
	return ARPSize
}
