// Package flow implements the datapath's flow key: the set of packet header
// fields OVS matches on, in both a human-oriented Fields form and a packed
// fixed-width Key form that supports the masked matching, hashing, and
// equality operations the classifiers need.
//
// The duality mirrors OVS itself: struct flow (Fields) for the slow path and
// miniflow (Key) for the fast path. The packed form makes a megaflow mask a
// simple bitwise template: a rule matches a packet when
// key.Apply(mask) == rule.Apply(mask).
package flow

import (
	"fmt"

	"ovsxdp/internal/packet/hdr"
)

// KeyWords is the number of 64-bit words in a packed Key.
const KeyWords = 12

// Word layout of the packed key. Each constant names the word index.
const (
	wMeta    = 0  // inPort(hi32) | recircID(lo32)
	wEthDst  = 1  // ethDst[0:6]<<16 | ethSrc[0:2]
	wEthSrc  = 2  // ethSrc[2:6]<<32 | ethType<<16 | vlanTCI
	wIP4     = 3  // ip4Src(hi32) | ip4Dst(lo32); ARP SPA/TPA reuse these
	wIPMeta  = 4  // proto<<56 | tos<<48 | ttl<<40 | frag<<32 | ctState<<24 | ctZone
	wL4      = 5  // tpSrc<<48 | tpDst<<32 | tcpFlags<<24 | icmpType<<16 | icmpCode<<8
	wIP6SrcA = 6  // ip6Src bytes 0..7
	wIP6SrcB = 7  // ip6Src bytes 8..15
	wIP6DstA = 8  // ip6Dst bytes 0..7
	wIP6DstB = 9  // ip6Dst bytes 8..15
	wTunnel  = 10 // tunVNI(hi32) | tunDst(lo32)
	wTunSrc  = 11 // tunSrc(hi32) | ctMark(lo32)
)

// VLANPresent is the bit set in the packed VLAN TCI when a tag exists,
// mirroring OVS's use of the CFI bit so that "no tag" and "tag with VID 0"
// are distinguishable.
const VLANPresent = 0x1000

// Key is the packed flow key.
type Key [KeyWords]uint64

// Mask is a bit template over Key: 1-bits participate in matching.
type Mask Key

// Fields is the human-oriented flow key, used by the slow path, rule
// construction, and tests.
type Fields struct {
	InPort   uint32
	RecircID uint32

	EthDst  hdr.MAC
	EthSrc  hdr.MAC
	EthType hdr.EtherType
	VLANTCI uint16 // VLANPresent | prio<<13 | vid, or 0 for untagged

	IP4Src  hdr.IP4 // also ARP SPA
	IP4Dst  hdr.IP4 // also ARP TPA
	IPv6Src hdr.IP6
	IPv6Dst hdr.IP6

	IPProto hdr.IPProto // also low 8 bits of ARP op
	IPTOS   uint8
	IPTTL   uint8
	IPFrag  uint8 // 0 not fragmented, 1 first fragment, 3 later fragment

	TPSrc    uint16 // TCP/UDP source port
	TPDst    uint16 // TCP/UDP destination port
	TCPFlags uint8
	ICMPType uint8
	ICMPCode uint8

	CtState packetCtState
	CtZone  uint16
	CtMark  uint32 // a match field only: no packet carries a mark, so an extracted key's is 0

	TunVNI uint32
	TunSrc hdr.IP4
	TunDst hdr.IP4
}

// packetCtState aliases the conntrack state bits without importing the
// packet package (flow is below packet in the dependency order used by the
// extractor file, which lives in this package and imports packet).
type packetCtState = uint8

// Pack converts Fields to the packed Key form.
func (f *Fields) Pack() Key {
	var k Key
	k[wMeta] = uint64(f.InPort)<<32 | uint64(f.RecircID)
	k[wEthDst] = uint64(f.EthDst[0])<<56 | uint64(f.EthDst[1])<<48 |
		uint64(f.EthDst[2])<<40 | uint64(f.EthDst[3])<<32 |
		uint64(f.EthDst[4])<<24 | uint64(f.EthDst[5])<<16 |
		uint64(f.EthSrc[0])<<8 | uint64(f.EthSrc[1])
	k[wEthSrc] = uint64(f.EthSrc[2])<<56 | uint64(f.EthSrc[3])<<48 |
		uint64(f.EthSrc[4])<<40 | uint64(f.EthSrc[5])<<32 |
		uint64(f.EthType)<<16 | uint64(f.VLANTCI)
	k[wIP4] = uint64(f.IP4Src)<<32 | uint64(f.IP4Dst)
	k[wIPMeta] = uint64(f.IPProto)<<56 | uint64(f.IPTOS)<<48 |
		uint64(f.IPTTL)<<40 | uint64(f.IPFrag)<<32 |
		uint64(f.CtState)<<24 | uint64(f.CtZone)
	k[wL4] = uint64(f.TPSrc)<<48 | uint64(f.TPDst)<<32 |
		uint64(f.TCPFlags)<<24 | uint64(f.ICMPType)<<16 | uint64(f.ICMPCode)<<8
	k[wIP6SrcA] = be64(f.IPv6Src[0:8])
	k[wIP6SrcB] = be64(f.IPv6Src[8:16])
	k[wIP6DstA] = be64(f.IPv6Dst[0:8])
	k[wIP6DstB] = be64(f.IPv6Dst[8:16])
	k[wTunnel] = uint64(f.TunVNI)<<32 | uint64(f.TunDst)
	k[wTunSrc] = uint64(f.TunSrc)<<32 | uint64(f.CtMark)
	return k
}

// Unpack converts the packed key back to Fields.
func (k Key) Unpack() Fields {
	var f Fields
	f.InPort = uint32(k[wMeta] >> 32)
	f.RecircID = uint32(k[wMeta])
	f.EthDst = hdr.MAC{byte(k[wEthDst] >> 56), byte(k[wEthDst] >> 48),
		byte(k[wEthDst] >> 40), byte(k[wEthDst] >> 32),
		byte(k[wEthDst] >> 24), byte(k[wEthDst] >> 16)}
	f.EthSrc = hdr.MAC{byte(k[wEthDst] >> 8), byte(k[wEthDst]),
		byte(k[wEthSrc] >> 56), byte(k[wEthSrc] >> 48),
		byte(k[wEthSrc] >> 40), byte(k[wEthSrc] >> 32)}
	f.EthType = hdr.EtherType(k[wEthSrc] >> 16)
	f.VLANTCI = uint16(k[wEthSrc])
	f.IP4Src = hdr.IP4(k[wIP4] >> 32)
	f.IP4Dst = hdr.IP4(k[wIP4])
	f.IPProto = hdr.IPProto(k[wIPMeta] >> 56)
	f.IPTOS = uint8(k[wIPMeta] >> 48)
	f.IPTTL = uint8(k[wIPMeta] >> 40)
	f.IPFrag = uint8(k[wIPMeta] >> 32)
	f.CtState = uint8(k[wIPMeta] >> 24)
	f.CtZone = uint16(k[wIPMeta])
	f.TPSrc = uint16(k[wL4] >> 48)
	f.TPDst = uint16(k[wL4] >> 32)
	f.TCPFlags = uint8(k[wL4] >> 24)
	f.ICMPType = uint8(k[wL4] >> 16)
	f.ICMPCode = uint8(k[wL4] >> 8)
	put64(f.IPv6Src[0:8], k[wIP6SrcA])
	put64(f.IPv6Src[8:16], k[wIP6SrcB])
	put64(f.IPv6Dst[0:8], k[wIP6DstA])
	put64(f.IPv6Dst[8:16], k[wIP6DstB])
	f.TunVNI = uint32(k[wTunnel] >> 32)
	f.TunDst = hdr.IP4(k[wTunnel])
	f.TunSrc = hdr.IP4(k[wTunSrc] >> 32)
	f.CtMark = uint32(k[wTunSrc])
	return f
}

func be64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

func put64(b []byte, v uint64) {
	b[0], b[1], b[2], b[3] = byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32)
	b[4], b[5], b[6], b[7] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}

// Apply returns the key with all bits outside the mask cleared.
func (k Key) Apply(m Mask) Key {
	var out Key
	for i := range k {
		out[i] = k[i] & m[i]
	}
	return out
}

// Hash returns a 32-bit hash of the full key, suitable for EMC indexing and
// RSS-style spreading. The mixer is xorshift-multiply per word with a final
// avalanche, deterministic across runs. The receiver is a pointer so the
// per-packet callers, which hold the key in one place, hash it without
// copying it.
func (k *Key) Hash(basis uint32) uint32 {
	h := uint64(basis) + 0x9e3779b97f4a7c15
	for i := range k {
		h ^= k[i]
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return uint32(h)
}

// String summarizes the key's main fields for diagnostics.
func (k Key) String() string {
	f := k.Unpack()
	return fmt.Sprintf("flow{port=%d recirc=%d %s->%s type=%s ip=%s->%s proto=%s tp=%d->%d ct=%02x zone=%d vni=%d}",
		f.InPort, f.RecircID, f.EthSrc, f.EthDst, f.EthType,
		f.IP4Src, f.IP4Dst, f.IPProto, f.TPSrc, f.TPDst, f.CtState, f.CtZone, f.TunVNI)
}

// --- Mask construction -----------------------------------------------------

// MaskAll matches every field exactly.
func MaskAll() Mask {
	var m Mask
	for i := range m {
		m[i] = ^uint64(0)
	}
	return m
}

// Union returns the field-wise OR of two masks.
func (m Mask) Union(o Mask) Mask {
	for i := range m {
		m[i] |= o[i]
	}
	return m
}

// Bits counts the number of set bits, a proxy for match specificity.
func (m Mask) Bits() int {
	n := 0
	for _, w := range m {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// MaskBuilder accumulates per-field exact or prefix matches into a Mask.
type MaskBuilder struct{ m Mask }

// NewMaskBuilder returns an all-wildcard builder.
func NewMaskBuilder() *MaskBuilder { return &MaskBuilder{} }

// Build returns the accumulated mask.
func (b *MaskBuilder) Build() Mask { return b.m }

// InPort matches the input port exactly.
func (b *MaskBuilder) InPort() *MaskBuilder { b.m[wMeta] |= 0xffffffff << 32; return b }

// RecircID matches the recirculation id exactly.
func (b *MaskBuilder) RecircID() *MaskBuilder { b.m[wMeta] |= 0xffffffff; return b }

// EthDst matches the destination MAC exactly.
func (b *MaskBuilder) EthDst() *MaskBuilder { b.m[wEthDst] |= 0xffffffffffff0000; return b }

// EthSrc matches the source MAC exactly.
func (b *MaskBuilder) EthSrc() *MaskBuilder {
	b.m[wEthDst] |= 0xffff
	b.m[wEthSrc] |= 0xffffffff00000000
	return b
}

// EthType matches the EtherType exactly.
func (b *MaskBuilder) EthType() *MaskBuilder { b.m[wEthSrc] |= 0xffff0000; return b }

// VLAN matches the full VLAN TCI.
func (b *MaskBuilder) VLAN() *MaskBuilder { b.m[wEthSrc] |= 0xffff; return b }

// IP4Src matches the source address under a prefix of the given length.
func (b *MaskBuilder) IP4Src(prefixLen int) *MaskBuilder {
	b.m[wIP4] |= uint64(hdr.PrefixMask(prefixLen)) << 32
	return b
}

// IP4Dst matches the destination address under a prefix of the given length.
func (b *MaskBuilder) IP4Dst(prefixLen int) *MaskBuilder {
	b.m[wIP4] |= uint64(hdr.PrefixMask(prefixLen))
	return b
}

// IPProto matches the transport protocol exactly.
func (b *MaskBuilder) IPProto() *MaskBuilder { b.m[wIPMeta] |= 0xff << 56; return b }

// IPTOS matches the TOS/DSCP byte exactly.
func (b *MaskBuilder) IPTOS() *MaskBuilder { b.m[wIPMeta] |= 0xff << 48; return b }

// IPTTL matches the TTL exactly.
func (b *MaskBuilder) IPTTL() *MaskBuilder { b.m[wIPMeta] |= 0xff << 40; return b }

// IPFrag matches the fragmentation state.
func (b *MaskBuilder) IPFrag() *MaskBuilder { b.m[wIPMeta] |= 0xff << 32; return b }

// CtState matches the conntrack state bits given.
func (b *MaskBuilder) CtState(bits uint8) *MaskBuilder {
	b.m[wIPMeta] |= uint64(bits) << 24
	return b
}

// CtZone matches the conntrack zone exactly.
func (b *MaskBuilder) CtZone() *MaskBuilder { b.m[wIPMeta] |= 0xffff; return b }

// CtMark matches the conntrack mark exactly.
func (b *MaskBuilder) CtMark() *MaskBuilder { b.m[wTunSrc] |= 0xffffffff; return b }

// TPSrc matches the transport source port exactly.
func (b *MaskBuilder) TPSrc() *MaskBuilder { b.m[wL4] |= 0xffff << 48; return b }

// TPDst matches the transport destination port exactly.
func (b *MaskBuilder) TPDst() *MaskBuilder { b.m[wL4] |= 0xffff << 32; return b }

// TCPFlags matches the given TCP flag bits.
func (b *MaskBuilder) TCPFlags(bits uint8) *MaskBuilder {
	b.m[wL4] |= uint64(bits) << 24
	return b
}

// ICMP matches ICMP type and code exactly.
func (b *MaskBuilder) ICMP() *MaskBuilder { b.m[wL4] |= 0xffff << 8; return b }

// TunVNI matches the tunnel VNI exactly.
func (b *MaskBuilder) TunVNI() *MaskBuilder { b.m[wTunnel] |= 0xffffffff << 32; return b }

// TunDst matches the tunnel destination IP exactly.
func (b *MaskBuilder) TunDst() *MaskBuilder { b.m[wTunnel] |= 0xffffffff; return b }

// TunSrc matches the tunnel source IP exactly.
func (b *MaskBuilder) TunSrc() *MaskBuilder { b.m[wTunSrc] |= 0xffffffff << 32; return b }
