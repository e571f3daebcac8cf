package flow

import (
	"fmt"
	"math/bits"
	"reflect"
	"strconv"
	"strings"

	"ovsxdp/internal/packet/hdr"
)

// The match-field table, this repository's lib/meta-flow: everything the
// control plane knows about a matchable field is one row of MatchFields, and
// the flow-text parser (ovs.ParseFlow), the text printer
// (ofproto.Match.String) and the OXM encoder and decoder (internal/openflow)
// are loops over it. A field is handled as a uint64 whatever its type in
// Fields; a Mask has the Key's layout, so a field's mask is read and written
// with the same accessors as its value (MatchSpec).

// OXM classes: OpenFlow basic, and the Nicira extensions OVS uses for the
// fields OpenFlow 1.3 has no id for: NXM_0, the OpenFlow 1.0 fields Nicira
// numbered first (IP TOS), and NXM_1 (conntrack, tunnel endpoints, TTL,
// fragments, TCP flags).
const (
	OXMBasic  = 0x8000
	OXMNXM0   = 0x0000
	OXMNicira = 0x0001
)

// Syntax is how flow text writes a field's value.
type Syntax uint8

const (
	SyntaxDecimal Syntax = iota // 80
	SyntaxHex                   // 0x0800; the 0x is optional on input
	SyntaxVLAN                  // VID 0..4095; the value matched is the TCI with VLANPresent set
	SyntaxMAC                   // 02:00:00:00:00:01
	SyntaxIPv4                  // 10.1.2.3, and 10.1.0.0/16 on a MaskPrefix field
	SyntaxFlags                 // +trk+est-new: value and mask together, one name per bit in Flags
)

// MaskKind is which masks the control plane can state for a field.
type MaskKind uint8

const (
	MaskExact  MaskKind = iota // every bit or none; never written
	MaskPrefix                 // the leading n bits; written (/n, OXM mask) when n is short of the width
	MaskBits                   // any bits; always written
)

// MatchField is one row of MatchFields.
type MatchField struct {
	Name     string // ovs-ofctl name; "" when flow text cannot state the field
	OXMClass uint16
	OXMField uint8
	OXMAlt   uint8 // non-zero: encoded as this field when nw_proto is AltProto, decoded from either
	AltProto hdr.IPProto
	Width    int // OXM value bytes
	Syntax   Syntax
	Flags    []string // SyntaxFlags: the bit names, least significant first
	Mask     MaskKind
	OmitZero bool // OXM-encoded only when the value is non-zero
	access
}

// access reads and writes one field of Fields as a number of bits bits; Set
// truncates to them.
type access struct {
	bits int
	Get  func(*Fields) uint64
	Set  func(*Fields, uint64)
}

func num[T ~uint8 | ~uint16 | ~uint32](p func(*Fields) *T) access {
	return access{
		bits: bits.Len64(uint64(^T(0))),
		Get:  func(f *Fields) uint64 { return uint64(*p(f)) },
		Set:  func(f *Fields, v uint64) { *p(f) = T(v) },
	}
}

func mac(p func(*Fields) *hdr.MAC) access {
	return access{
		bits: 48,
		Get:  func(f *Fields) uint64 { return macBits(*p(f)) },
		Set:  func(f *Fields, v uint64) { *p(f) = bitsMAC(v) },
	}
}

func macBits(a hdr.MAC) (v uint64) {
	for _, b := range a {
		v = v<<8 | uint64(b)
	}
	return v
}

func bitsMAC(v uint64) (a hdr.MAC) {
	for i := range a {
		a[i] = byte(v >> (8 * (5 - i)))
	}
	return a
}

// MatchFields is the table, in OXM emission order.
var MatchFields = []MatchField{
	{Name: "in_port", OXMClass: OXMBasic, OXMField: 0, Width: 4,
		access: num(func(f *Fields) *uint32 { return &f.InPort })},
	{OXMClass: OXMNicira, OXMField: 108, Width: 4, OmitZero: true,
		access: num(func(f *Fields) *uint32 { return &f.RecircID })},
	{Name: "dl_dst", OXMClass: OXMBasic, OXMField: 3, Width: 6, Syntax: SyntaxMAC,
		access: mac(func(f *Fields) *hdr.MAC { return &f.EthDst })},
	{Name: "dl_src", OXMClass: OXMBasic, OXMField: 4, Width: 6, Syntax: SyntaxMAC,
		access: mac(func(f *Fields) *hdr.MAC { return &f.EthSrc })},
	{Name: "dl_type", OXMClass: OXMBasic, OXMField: 5, Width: 2, Syntax: SyntaxHex,
		access: num(func(f *Fields) *hdr.EtherType { return &f.EthType })},
	{Name: "dl_vlan", OXMClass: OXMBasic, OXMField: 6, Width: 2, Syntax: SyntaxVLAN,
		access: num(func(f *Fields) *uint16 { return &f.VLANTCI })},
	{Name: "nw_proto", OXMClass: OXMBasic, OXMField: 10, Width: 1,
		access: num(func(f *Fields) *hdr.IPProto { return &f.IPProto })},
	{Name: "nw_src", OXMClass: OXMBasic, OXMField: 11, Width: 4, Syntax: SyntaxIPv4, Mask: MaskPrefix,
		access: num(func(f *Fields) *hdr.IP4 { return &f.IP4Src })},
	{Name: "nw_dst", OXMClass: OXMBasic, OXMField: 12, Width: 4, Syntax: SyntaxIPv4, Mask: MaskPrefix,
		access: num(func(f *Fields) *hdr.IP4 { return &f.IP4Dst })},
	{Name: "nw_tos", OXMClass: OXMNXM0, OXMField: 8, Width: 1, // NXM_OF_IP_TOS
		access: num(func(f *Fields) *uint8 { return &f.IPTOS })},
	{Name: "nw_ttl", OXMClass: OXMNicira, OXMField: 29, Width: 1, // NXM_NX_IP_TTL
		access: num(func(f *Fields) *uint8 { return &f.IPTTL })},
	{Name: "ip_frag", OXMClass: OXMNicira, OXMField: 26, Width: 1, // NXM_NX_IP_FRAG: 1 first, 3 later
		access: num(func(f *Fields) *uint8 { return &f.IPFrag })},
	{Name: "tp_src", OXMClass: OXMBasic, OXMField: 13, OXMAlt: 15, AltProto: hdr.IPProtoUDP, Width: 2,
		access: num(func(f *Fields) *uint16 { return &f.TPSrc })},
	{Name: "tp_dst", OXMClass: OXMBasic, OXMField: 14, OXMAlt: 16, AltProto: hdr.IPProtoUDP, Width: 2,
		access: num(func(f *Fields) *uint16 { return &f.TPDst })},
	{Name: "tcp_flags", OXMClass: OXMNicira, OXMField: 34, Width: 2, Syntax: SyntaxFlags, Mask: MaskBits, // NXM_NX_TCP_FLAGS
		Flags:  []string{"fin", "syn", "rst", "psh", "ack", "urg", "ece", "cwr"},
		access: num(func(f *Fields) *uint8 { return &f.TCPFlags })},
	{Name: "icmp_type", OXMClass: OXMBasic, OXMField: 19, OXMAlt: 29, AltProto: hdr.IPProtoICMPv6, Width: 1,
		access: num(func(f *Fields) *uint8 { return &f.ICMPType })},
	{Name: "icmp_code", OXMClass: OXMBasic, OXMField: 20, OXMAlt: 30, AltProto: hdr.IPProtoICMPv6, Width: 1,
		access: num(func(f *Fields) *uint8 { return &f.ICMPCode })},
	{Name: "tun_id", OXMClass: OXMBasic, OXMField: 38, Width: 8,
		access: num(func(f *Fields) *uint32 { return &f.TunVNI })},
	{Name: "tun_src", OXMClass: OXMNicira, OXMField: 31, Width: 4, Syntax: SyntaxIPv4,
		access: num(func(f *Fields) *hdr.IP4 { return &f.TunSrc })},
	{Name: "tun_dst", OXMClass: OXMNicira, OXMField: 32, Width: 4, Syntax: SyntaxIPv4,
		access: num(func(f *Fields) *hdr.IP4 { return &f.TunDst })},
	{Name: "ct_state", OXMClass: OXMNicira, OXMField: 105, Width: 1, Syntax: SyntaxFlags, Mask: MaskBits,
		Flags:  []string{"trk", "new", "est", "rel", "rpl", "inv"},
		access: num(func(f *Fields) *uint8 { return &f.CtState })},
	{Name: "ct_zone", OXMClass: OXMNicira, OXMField: 106, Width: 2,
		access: num(func(f *Fields) *uint16 { return &f.CtZone })},
	{Name: "ct_mark", OXMClass: OXMNicira, OXMField: 107, Width: 4,
		access: num(func(f *Fields) *uint32 { return &f.CtMark })},
}

// MatchKeywords are the bare words of flow text: each stands for an exact
// dl_type and, if HasProto, an exact nw_proto.
var MatchKeywords = []struct {
	Name     string
	EthType  hdr.EtherType
	IPProto  hdr.IPProto
	HasProto bool
}{
	{Name: "ip", EthType: hdr.EtherTypeIPv4},
	{Name: "arp", EthType: hdr.EtherTypeARP},
	{Name: "tcp", EthType: hdr.EtherTypeIPv4, IPProto: hdr.IPProtoTCP, HasProto: true},
	{Name: "udp", EthType: hdr.EtherTypeIPv4, IPProto: hdr.IPProtoUDP, HasProto: true},
	{Name: "icmp", EthType: hdr.EtherTypeIPv4, IPProto: hdr.IPProtoICMP, HasProto: true},
}

// MatchFieldByName returns the row flow text calls name, or nil.
func MatchFieldByName(name string) *MatchField {
	for i := range MatchFields {
		if r := &MatchFields[i]; r.Name == name && name != "" {
			return r
		}
	}
	return nil
}

// MatchFieldByOXM returns the row an OXM TLV header names, or nil.
func MatchFieldByOXM(class uint16, field uint8) *MatchField {
	for i := range MatchFields {
		r := &MatchFields[i]
		if r.OXMClass == class && (r.OXMField == field || r.OXMAlt == field && field != 0) {
			return r
		}
	}
	return nil
}

// Ones is the field's exact-match mask.
func (r *MatchField) Ones() uint64 { return 1<<r.bits - 1 }

// WireField is the OXM field number that carries the row in a match on v.
func (r *MatchField) WireField(v *Fields) uint8 {
	if r.OXMAlt != 0 && v.IPProto == r.AltProto {
		return r.OXMAlt
	}
	return r.OXMField
}

// Expressible returns the part of field mask m the row's MaskKind can state,
// and false when that is nothing: a partly masked exact field is not matched
// at all, a prefix field is matched on its leading ones.
func (r *MatchField) Expressible(m uint64) (uint64, bool) {
	switch r.Mask {
	case MaskExact:
		if m != r.Ones() {
			m = 0
		}
	case MaskPrefix:
		n := bits.LeadingZeros64(^(m << (64 - r.bits)))
		m = r.Ones() &^ (r.Ones() >> n)
	}
	return m, m != 0
}

// Masked reports whether a match under the expressible mask m is written
// with the mask beside the value.
func (r *MatchField) Masked(m uint64) bool { return r.Mask == MaskBits || m != r.Ones() }

// WireMask is the field mask an OXM TLV states: exact unless it carries a
// mask the row's MaskKind honours.
func (r *MatchField) WireMask(m uint64, hasMask bool) uint64 {
	if !hasMask || r.Mask == MaskExact {
		return r.Ones()
	}
	m, _ = r.Expressible(m)
	return m
}

// Parse reads the text after "name=" into a value and a field mask.
func (r *MatchField) Parse(s string) (v, m uint64, err error) {
	m = r.Ones()
	switch r.Syntax {
	case SyntaxDecimal:
		v, err = strconv.ParseUint(s, 10, r.bits)
	case SyntaxHex:
		v, err = strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, r.bits)
	case SyntaxVLAN:
		v, err = strconv.ParseUint(s, 10, 12)
		v |= VLANPresent
	case SyntaxMAC:
		var a hdr.MAC
		a, err = hdr.ParseMAC(s)
		v = macBits(a)
	case SyntaxIPv4:
		addr, plen, hasLen := strings.Cut(s, "/")
		if hasLen && r.Mask == MaskPrefix {
			n, perr := strconv.ParseUint(plen, 10, 8)
			if perr != nil || int(n) > r.bits {
				return 0, 0, fmt.Errorf("flow: %s: bad prefix length %q", r.Name, plen)
			}
			m, s = r.Ones()&^(r.Ones()>>n), addr
		}
		var ip hdr.IP4
		ip, err = hdr.ParseIP4(s)
		v = uint64(ip)
	case SyntaxFlags:
		return r.parseFlags(s)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("flow: %s: bad value %q", r.Name, s)
	}
	return v, m, nil
}

// Format is the inverse of Parse for an expressible mask m.
func (r *MatchField) Format(v, m uint64) string {
	switch r.Syntax {
	case SyntaxHex:
		return fmt.Sprintf("0x%0*x", r.bits/4, v)
	case SyntaxVLAN:
		return strconv.FormatUint(v&0xfff, 10) // the syntax has no word for priority bits or an untagged match
	case SyntaxMAC:
		return bitsMAC(v).String()
	case SyntaxIPv4:
		s := hdr.IP4(v).String()
		if r.Masked(m) {
			s += "/" + strconv.Itoa(bits.OnesCount64(m))
		}
		return s
	case SyntaxFlags:
		var s string
		for i, name := range r.Flags {
			switch bit := uint64(1) << i; {
			case m&bit == 0:
			case v&bit != 0:
				s += "+" + name
			default:
				s += "-" + name
			}
		}
		return s
	}
	return strconv.FormatUint(v, 10)
}

// parseFlags parses "+trk+est-new" into value and mask bits.
func (r *MatchField) parseFlags(s string) (v, m uint64, err error) {
	for len(s) > 0 {
		sign := s[0]
		if sign != '+' && sign != '-' {
			return 0, 0, fmt.Errorf("flow: %s must be +flag/-flag sequences, got %q", r.Name, s)
		}
		end := 1 + strings.IndexAny(s[1:]+"+", "+-")
		bit := uint64(0)
		for i, name := range r.Flags {
			if s[1:end] == name {
				bit = 1 << i
			}
		}
		if bit == 0 {
			return 0, 0, fmt.Errorf("flow: unknown %s flag %q", r.Name, s[1:end])
		}
		m |= bit
		if sign == '+' {
			v |= bit
		}
		s = s[end:]
	}
	return v, m, nil
}

// Uncarried names the member of Fields whose part of mask m no row of
// MatchFields states: one no row reads (IPv6Src), or one whose row's mask
// kind cannot state that part (nw_proto under 0x0f). It returns "" when the
// rows state all of m, and "unused key bits" for bits outside every member.
func Uncarried(m Mask) string {
	f := Key(m).Unpack()
	if Mask(f.Pack()) != m {
		return "unused key bits"
	}
	for i := range MatchFields {
		r := &MatchFields[i]
		if fm := r.Get(&f); fm != 0 {
			if e, _ := r.Expressible(fm); e == fm {
				r.Set(&f, 0)
			}
		}
	}
	if f == (Fields{}) {
		return ""
	}
	rest := reflect.ValueOf(f)
	for i := 0; i < rest.NumField(); i++ {
		if !rest.Field(i).IsZero() {
			return rest.Type().Field(i).Name
		}
	}
	return ""
}

// MatchSpec is a match field by field: Value holds each field's value and
// Mask, in the same layout, each field's mask.
type MatchSpec struct{ Value, Mask Fields }

// SpecOf unpacks a packed match.
func SpecOf(k Key, m Mask) MatchSpec { return MatchSpec{Value: k.Unpack(), Mask: Key(m).Unpack()} }

// PackMask returns the spec's mask in packed form.
func (s *MatchSpec) PackMask() Mask { return Mask(s.Mask.Pack()) }

// Add matches field r on value v under field mask m, widening any mask an
// earlier Add left on the field.
func (s *MatchSpec) Add(r *MatchField, v, m uint64) {
	r.Set(&s.Value, v)
	r.Set(&s.Mask, r.Get(&s.Mask)|m)
}

// AddText adds one token of flow text: a MatchKeywords word, or name=val
// for a row of MatchFields.
func (s *MatchSpec) AddText(name, val string) error {
	for _, k := range MatchKeywords {
		if k.Name == name {
			s.Value.EthType, s.Mask.EthType = k.EthType, 0xffff
			if k.HasProto {
				s.Value.IPProto, s.Mask.IPProto = k.IPProto, 0xff
			}
			return nil
		}
	}
	r := MatchFieldByName(name)
	if r == nil {
		return fmt.Errorf("flow: unknown match field or keyword %q", name)
	}
	v, m, err := r.Parse(val)
	if err != nil {
		return err
	}
	s.Add(r, v, m)
	return nil
}

// Each calls fn, in table order, for every row the spec matches on, with the
// field's value and the expressible part of its mask.
func (s *MatchSpec) Each(fn func(r *MatchField, v, m uint64)) {
	for i := range MatchFields {
		r := &MatchFields[i]
		if m, ok := r.Expressible(r.Get(&s.Mask)); ok {
			fn(r, r.Get(&s.Value), m)
		}
	}
}

// String prints the spec as flow text AddText reads back: name=value pairs
// for the rows that have a name.
func (s MatchSpec) String() string {
	var parts []string
	s.Each(func(r *MatchField, v, m uint64) {
		if r.Name != "" {
			parts = append(parts, r.Name+"="+r.Format(v, m))
		}
	})
	return strings.Join(parts, ",")
}
