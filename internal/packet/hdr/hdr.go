// Package hdr implements byte-level parsing and serialization for the
// protocol headers the OVS datapath handles: Ethernet, 802.1Q VLAN, ARP,
// IPv4, IPv6, TCP, UDP, ICMP, and the Geneve/VXLAN/GRE tunnel encapsulations
// the paper's NSX deployment uses.
//
// The design follows the layer conventions of gopacket: each header type has
// a Parse function that decodes from a byte slice without copying, a
// SerializeTo method that writes network byte order, and a fixed LayerType.
// A zero-allocation single-pass decoder for the datapath fast path lives in
// package flow; this package is the canonical, fully-featured codec used by
// the slow path, the traffic generators, and the tests.
package hdr

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// EtherType identifies the payload protocol of an Ethernet frame.
type EtherType uint16

// EtherTypes handled by the datapath.
const (
	EtherTypeIPv4 EtherType = 0x0800
	EtherTypeARP  EtherType = 0x0806
	EtherTypeVLAN EtherType = 0x8100
	EtherTypeIPv6 EtherType = 0x86dd
)

// String returns the conventional name of the EtherType.
func (t EtherType) String() string {
	switch t {
	case EtherTypeIPv4:
		return "ipv4"
	case EtherTypeARP:
		return "arp"
	case EtherTypeVLAN:
		return "vlan"
	case EtherTypeIPv6:
		return "ipv6"
	default:
		return fmt.Sprintf("0x%04x", uint16(t))
	}
}

// IPProto identifies the transport protocol of an IP packet.
type IPProto uint8

// IP protocol numbers handled by the datapath.
const (
	IPProtoICMP   IPProto = 1
	IPProtoTCP    IPProto = 6
	IPProtoUDP    IPProto = 17
	IPProtoGRE    IPProto = 47
	IPProtoICMPv6 IPProto = 58
)

// String returns the conventional name of the protocol.
func (p IPProto) String() string {
	switch p {
	case IPProtoICMP:
		return "icmp"
	case IPProtoTCP:
		return "tcp"
	case IPProtoUDP:
		return "udp"
	case IPProtoGRE:
		return "gre"
	case IPProtoICMPv6:
		return "icmpv6"
	default:
		return fmt.Sprintf("proto-%d", uint8(p))
	}
}

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// Broadcast is the all-ones Ethernet address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String formats the address in the usual colon-separated hex form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// ParseMAC is the inverse of MAC.String.
func ParseMAC(s string) (MAC, error) {
	var m MAC
	parts := strings.Split(s, ":")
	if len(parts) != len(m) {
		return m, fmt.Errorf("hdr: bad MAC %q", s)
	}
	for i, p := range parts {
		b, err := strconv.ParseUint(p, 16, 8)
		if err != nil {
			return m, fmt.Errorf("hdr: bad MAC %q", s)
		}
		m[i] = byte(b)
	}
	return m, nil
}

// IsBroadcast reports whether the address is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// IsMulticast reports whether the address has the group bit set.
func (m MAC) IsMulticast() bool { return m[0]&1 == 1 }

// IP4 is an IPv4 address in network byte order.
type IP4 uint32

// MakeIP4 builds an address from its dotted-quad octets.
func MakeIP4(a, b, c, d byte) IP4 {
	return IP4(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// String formats the address in dotted-quad form.
func (ip IP4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// ParseIP4 is the inverse of IP4.String.
func ParseIP4(s string) (IP4, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("hdr: bad IPv4 address %q", s)
	}
	var ip IP4
	for _, p := range parts {
		b, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("hdr: bad IPv4 address %q", s)
		}
		ip = ip<<8 | IP4(b)
	}
	return ip, nil
}

// IP6 is an IPv6 address.
type IP6 [16]byte

// String formats the address as colon-separated hex groups (no zero
// compression; this is a diagnostic format).
func (ip IP6) String() string {
	var s string
	for i := 0; i < 16; i += 2 {
		if i > 0 {
			s += ":"
		}
		s += fmt.Sprintf("%x", binary.BigEndian.Uint16(ip[i:]))
	}
	return s
}

// Sizes of fixed-length headers in bytes.
const (
	EthernetSize  = 14
	VLANSize      = 4
	ARPSize       = 28
	IPv4MinSize   = 20
	IPv6Size      = 40
	TCPMinSize    = 20
	UDPSize       = 8
	ICMPSize      = 8
	VXLANSize     = 8
	GeneveMinSize = 8
	GREMinSize    = 4
)

// ErrTruncated is returned when a buffer is too short for the header being
// parsed.
type ErrTruncated struct {
	Layer string
	Need  int
	Have  int
}

func (e ErrTruncated) Error() string {
	return fmt.Sprintf("hdr: truncated %s header: need %d bytes, have %d", e.Layer, e.Need, e.Have)
}

// ErrMalformed is returned when a header's fields are internally
// inconsistent (bad version, bad length field, ...).
type ErrMalformed struct {
	Layer  string
	Reason string
}

func (e ErrMalformed) Error() string {
	return fmt.Sprintf("hdr: malformed %s header: %s", e.Layer, e.Reason)
}
