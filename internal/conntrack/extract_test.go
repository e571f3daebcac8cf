package conntrack

import (
	"encoding/binary"
	"fmt"
	"testing"

	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
)

// referenceExtract is extract as it was before the fixed-offset reader: the
// hdr.Parse* chain, one header struct per layer. It defines which frames
// conntrack accepts; TestExtractMatchesReference and FuzzCtExtract hold
// extract to it on every result.
func referenceExtract(p *packet.Packet) (tu Tuple, tcpFlags uint8, icmpErr bool, ok bool) {
	d := p.Data
	eth, err := hdr.ParseEthernet(d)
	if err != nil || eth.Type != hdr.EtherTypeIPv4 {
		return tu, 0, false, false
	}
	ip, err := hdr.ParseIPv4(d[eth.HeaderLen:])
	if err != nil || ip.FragOffset != 0 {
		return tu, 0, false, false
	}
	tu.SrcIP, tu.DstIP, tu.Proto = ip.Src, ip.Dst, ip.Proto
	l4 := d[eth.HeaderLen+ip.HeaderLen:]
	switch ip.Proto {
	case hdr.IPProtoTCP:
		h, err := hdr.ParseTCP(l4)
		if err != nil {
			return tu, 0, false, false
		}
		tu.SrcPort, tu.DstPort = h.SrcPort, h.DstPort
		tcpFlags = h.Flags
	case hdr.IPProtoUDP:
		h, err := hdr.ParseUDP(l4)
		if err != nil {
			return tu, 0, false, false
		}
		tu.SrcPort, tu.DstPort = h.SrcPort, h.DstPort
	case hdr.IPProtoICMP:
		h, err := hdr.ParseICMP(l4)
		if err != nil {
			return tu, 0, false, false
		}
		if icmpErrorType(h.Type) {
			return tu, 0, true, true
		}
		tu.SrcPort, tu.DstPort = h.ID, h.ID
	default:
		return tu, 0, false, false
	}
	return tu, tcpFlags, false, true
}

// extractFrame is one row of the differential table. wantOK documents the
// verdict the row was written to provoke; the reference, not this column,
// is what extract is compared to.
type extractFrame struct {
	name   string
	data   []byte
	wantOK bool
}

// extractFrames builds well-formed frames of every protocol conntrack reads
// and one malformed variant per accept/reject rule of the parse chain, each
// both untagged and 802.1Q-tagged.
func extractFrames() []extractFrame {
	var out []extractFrame
	eth := func(vlan bool) *hdr.Builder {
		b := hdr.NewBuilder().Eth(macA, macB)
		if vlan {
			b.VLAN(100, 3)
		}
		return b
	}
	for _, vlan := range []bool{false, true} {
		l3 := hdr.EthernetSize
		tag := ""
		if vlan {
			l3, tag = l3+hdr.VLANSize, "vlan-"
		}
		l4 := l3 + hdr.IPv4MinSize
		add := func(name string, ok bool, base []byte, mutate func(d []byte)) {
			d := append([]byte(nil), base...)
			if mutate != nil {
				mutate(d)
			}
			out = append(out, extractFrame{tag + name, d, ok})
		}
		// withOptions inserts n 4-byte words of IP options (NOPs).
		withOptions := func(base []byte, n int) []byte {
			d := append([]byte(nil), base[:l4]...)
			for i := 0; i < 4*n; i++ {
				d = append(d, 1)
			}
			d = append(d, base[l4:]...)
			d[l3] = 4<<4 | byte(5+n)
			binary.BigEndian.PutUint16(d[l3+2:], binary.BigEndian.Uint16(d[l3+2:])+uint16(4*n))
			return d
		}
		tcp := eth(vlan).IPv4H(ipA, ipB, 64).TCPH(1000, 80, 1, 0, hdr.TCPSyn|hdr.TCPAck).PayloadLen(6).Build()
		udp := eth(vlan).IPv4H(ipA, ipB, 64).UDPH(5353, 53).PayloadLen(8).Build()
		echo := eth(vlan).IPv4H(ipA, ipB, 64).ICMPH(hdr.ICMPEchoRequest, 0, 0x1234, 7).PayloadLen(8).Build()

		add("tcp", true, tcp, nil)
		add("udp", true, udp, nil)
		add("icmp-echo-request", true, echo, nil)
		add("icmp-echo-reply", true, echo, func(d []byte) { d[l4] = hdr.ICMPEchoReply })
		add("icmp-timestamp", true, echo, func(d []byte) { d[l4] = 13 })
		for _, typ := range []byte{icmpDestUnreachable, icmpSourceQuench, icmpRedirect, icmpTimeExceeded, icmpParamProblem} {
			typ := typ
			add(fmt.Sprintf("icmp-error-%d", typ), true, echo, func(d []byte) { d[l4] = typ })
		}
		add("tcp-ip-options-1", true, withOptions(tcp, 1), nil)
		add("tcp-ip-options-10", true, withOptions(tcp, 10), nil)
		add("udp-ip-options-3", true, withOptions(udp, 3), nil)
		add("tcp-options", true, tcp, func(d []byte) { d[l4+12] = 6 << 4 })
		add("tcp-all-flag-bits", true, tcp, func(d []byte) { d[l4+13] = 0xff })
		add("tcp-total-length-equals-ihl", true, tcp, func(d []byte) { binary.BigEndian.PutUint16(d[l3+2:], 20) })
		add("first-fragment", true, udp, func(d []byte) { binary.BigEndian.PutUint16(d[l3+6:], 0x2000) })
		add("dont-fragment", true, udp, func(d []byte) { binary.BigEndian.PutUint16(d[l3+6:], 0x4000) })
		add("all-ip-flag-bits", true, udp, func(d []byte) { binary.BigEndian.PutUint16(d[l3+6:], 0xe000) })
		add("udp-length-8", true, udp, func(d []byte) { binary.BigEndian.PutUint16(d[l4+4:], 8) })

		add("later-fragment", false, udp, func(d []byte) { binary.BigEndian.PutUint16(d[l3+6:], 0x2001) })
		add("last-fragment", false, tcp, func(d []byte) { binary.BigEndian.PutUint16(d[l3+6:], 0x1fff) })
		add("fragment-offset-top-bit", false, tcp, func(d []byte) { binary.BigEndian.PutUint16(d[l3+6:], 0x1000) })
		add("ip-version-6", false, tcp, func(d []byte) { d[l3] = 6<<4 | 5 })
		add("ihl-4", false, tcp, func(d []byte) { d[l3] = 4<<4 | 4 })
		add("ihl-0", false, tcp, func(d []byte) { d[l3] = 4 << 4 })
		add("ihl-past-buffer", false, udp[:l4+8], func(d []byte) { d[l3] = 4<<4 | 15 })
		add("total-length-below-ihl", false, tcp, func(d []byte) { binary.BigEndian.PutUint16(d[l3+2:], 19) })
		add("total-length-below-ihl-with-options", false, withOptions(tcp, 2), func(d []byte) { binary.BigEndian.PutUint16(d[l3+2:], 27) })
		add("tcp-data-offset-4", false, tcp, func(d []byte) { d[l4+12] = 4 << 4 })
		add("tcp-data-offset-0", false, tcp, func(d []byte) { d[l4+12] = 0 })
		add("tcp-data-offset-past-buffer", false, tcp, func(d []byte) { d[l4+12] = 15 << 4 })
		add("udp-length-7", false, udp, func(d []byte) { binary.BigEndian.PutUint16(d[l4+4:], 7) })
		add("udp-length-0", false, udp, func(d []byte) { binary.BigEndian.PutUint16(d[l4+4:], 0) })
		add("proto-gre", false, udp, func(d []byte) { d[l3+9] = 47 })
		add("proto-icmpv6-in-ipv4", false, echo, func(d []byte) { d[l3+9] = byte(hdr.IPProtoICMPv6) })
		add("ethertype-ipv6", false, tcp, func(d []byte) { binary.BigEndian.PutUint16(d[l3-2:], uint16(hdr.EtherTypeIPv6)) })
		add("ethertype-unknown", false, tcp, func(d []byte) { binary.BigEndian.PutUint16(d[l3-2:], 0x88b5) })
		add("ipv6", false, eth(vlan).IPv6H(hdr.IP6{1}, hdr.IP6{2}, 64).UDPH(1, 2).PayloadLen(8).Build(), nil)
		add("arp", false, eth(vlan).ARPH(hdr.ARPRequest, macA, ipA, hdr.MAC{}, ipB).Build(), nil)
	}
	// A second tag is not looked through: the inner ethertype is VLAN.
	qinq := hdr.NewBuilder().Eth(macA, macB).VLAN(100, 0).IPv4H(ipA, ipB, 64).UDPH(1, 2).PayloadLen(8).Build()
	binary.BigEndian.PutUint16(qinq[16:], uint16(hdr.EtherTypeVLAN))
	out = append(out, extractFrame{"double-tagged", qinq, false})
	return out
}

func compareExtract(t testing.TB, name string, data []byte) (ok bool) {
	p := &packet.Packet{Data: data}
	tu, flags, icmpErr, ok := extract(p)
	rtu, rflags, ricmpErr, rok := referenceExtract(p)
	if tu != rtu || flags != rflags || icmpErr != ricmpErr || ok != rok {
		t.Fatalf("%s (%d bytes % x): extract = (%+v, %#x, %v, %v), reference (%+v, %#x, %v, %v)",
			name, len(data), data, tu, flags, icmpErr, ok, rtu, rflags, ricmpErr, rok)
	}
	return ok
}

// TestExtractMatchesReference: on every table frame, and on every prefix of
// every table frame, the fixed-offset reader returns what the parse chain
// returns — verdict, ICMP-error flag, TCP flags and the whole tuple,
// including the addresses a late rejection leaves behind.
func TestExtractMatchesReference(t *testing.T) {
	for _, f := range extractFrames() {
		if got := compareExtract(t, f.name, f.data); got != f.wantOK {
			t.Errorf("%s: ok = %v, the row expects %v", f.name, got, f.wantOK)
		}
		for n := 0; n < len(f.data); n++ {
			compareExtract(t, fmt.Sprintf("%s[:%d]", f.name, n), f.data[:n:n])
		}
	}
}

// FuzzCtExtract mutates the table frames; any input on which the two
// readers disagree (or the new one reads out of bounds) fails.
func FuzzCtExtract(f *testing.F) {
	for _, fr := range extractFrames() {
		f.Add(fr.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		compareExtract(t, "fuzz", data)
	})
}
