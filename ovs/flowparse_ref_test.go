package ovs

// The match half of ParseFlow as it stood before flow.MatchFields (PR 23):
// one case arm per field and five shorthands, each with its own value parser
// and MaskBuilder step. Kept as the reference the table-driven parser is
// compared with (TestParseFlowMatchesReference).

import (
	"fmt"
	"strconv"
	"strings"

	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet/hdr"
)

func refParseFlow(spec string) (*ofproto.Rule, error) {
	matchPart, actionPart, ok := strings.Cut(spec, "actions=")
	if !ok {
		return nil, fmt.Errorf("ovs: flow %q has no actions=", spec)
	}
	matchPart = strings.TrimSuffix(strings.TrimSpace(matchPart), ",")

	rule := &ofproto.Rule{Priority: 1}
	var fields flow.Fields
	mb := flow.NewMaskBuilder()
	var extraMask flow.Mask

	for _, tok := range splitTop(matchPart) {
		if tok == "" {
			continue
		}
		key, val, hasVal := strings.Cut(tok, "=")
		switch key {
		case "table":
			n, err := parseUint(val, 8)
			if err != nil {
				return nil, err
			}
			rule.TableID = uint8(n)
		case "priority":
			n, err := parseUint(val, 16)
			if err != nil {
				return nil, err
			}
			rule.Priority = int(n)
		case "cookie":
			n, err := strconv.ParseUint(strings.TrimPrefix(val, "0x"), 16, 64)
			if err != nil {
				return nil, fmt.Errorf("ovs: bad cookie %q", val)
			}
			rule.Cookie = n
		case "in_port":
			n, err := parseUint(val, 32)
			if err != nil {
				return nil, err
			}
			fields.InPort = uint32(n)
			mb.InPort()
		case "dl_src":
			mac, err := refParseMAC(val)
			if err != nil {
				return nil, err
			}
			fields.EthSrc = mac
			mb.EthSrc()
		case "dl_dst":
			mac, err := refParseMAC(val)
			if err != nil {
				return nil, err
			}
			fields.EthDst = mac
			mb.EthDst()
		case "dl_type":
			n, err := strconv.ParseUint(strings.TrimPrefix(val, "0x"), 16, 16)
			if err != nil {
				return nil, fmt.Errorf("ovs: bad dl_type %q", val)
			}
			fields.EthType = hdr.EtherType(n)
			mb.EthType()
		case "dl_vlan":
			n, err := parseUint(val, 12)
			if err != nil {
				return nil, err
			}
			fields.VLANTCI = flow.VLANPresent | uint16(n)
			mb.VLAN()
		case "ip":
			fields.EthType = hdr.EtherTypeIPv4
			mb.EthType()
		case "arp":
			fields.EthType = hdr.EtherTypeARP
			mb.EthType()
		case "tcp", "udp", "icmp":
			fields.EthType = hdr.EtherTypeIPv4
			mb.EthType().IPProto()
			switch key {
			case "tcp":
				fields.IPProto = hdr.IPProtoTCP
			case "udp":
				fields.IPProto = hdr.IPProtoUDP
			case "icmp":
				fields.IPProto = hdr.IPProtoICMP
			}
		case "nw_proto":
			n, err := parseUint(val, 8)
			if err != nil {
				return nil, err
			}
			fields.IPProto = hdr.IPProto(n)
			mb.IPProto()
		case "nw_src", "nw_dst":
			ip, plen, err := refParseCIDR(val)
			if err != nil {
				return nil, err
			}
			if key == "nw_src" {
				fields.IP4Src = ip
				mb.IP4Src(plen)
			} else {
				fields.IP4Dst = ip
				mb.IP4Dst(plen)
			}
		case "nw_ttl":
			n, err := parseUint(val, 8)
			if err != nil {
				return nil, err
			}
			fields.IPTTL = uint8(n)
			mb.IPTTL()
		case "tp_src":
			n, err := parseUint(val, 16)
			if err != nil {
				return nil, err
			}
			fields.TPSrc = uint16(n)
			mb.TPSrc()
		case "tp_dst":
			n, err := parseUint(val, 16)
			if err != nil {
				return nil, err
			}
			fields.TPDst = uint16(n)
			mb.TPDst()
		case "ct_state":
			state, bits, err := refParseCtState(val)
			if err != nil {
				return nil, err
			}
			fields.CtState = state
			extraMask = extraMask.Union(flow.NewMaskBuilder().CtState(bits).Build())
		case "ct_zone":
			n, err := parseUint(val, 16)
			if err != nil {
				return nil, err
			}
			fields.CtZone = uint16(n)
			mb.CtZone()
		case "ct_mark":
			n, err := parseUint(val, 32)
			if err != nil {
				return nil, err
			}
			fields.CtMark = uint32(n)
			mb.CtMark()
		case "tun_id":
			n, err := parseUint(val, 32)
			if err != nil {
				return nil, err
			}
			fields.TunVNI = uint32(n)
			mb.TunVNI()
		case "tun_src":
			ip, err := refParseIP(val)
			if err != nil {
				return nil, err
			}
			fields.TunSrc = ip
			mb.TunSrc()
		case "tun_dst":
			ip, err := refParseIP(val)
			if err != nil {
				return nil, err
			}
			fields.TunDst = ip
			mb.TunDst()
		default:
			if !hasVal {
				return nil, fmt.Errorf("ovs: unknown match keyword %q", key)
			}
			return nil, fmt.Errorf("ovs: unknown match field %q", key)
		}
	}
	rule.Match = ofproto.NewMatch(fields, mb.Build().Union(extraMask))

	actions, err := parseActions(actionPart)
	if err != nil {
		return nil, err
	}
	rule.Actions = actions
	return rule, nil
}

// refParseCtState parses "+trk+est-new" into value and mask bits.
func refParseCtState(s string) (value uint8, bits uint8, err error) {
	names := map[string]uint8{
		"trk": 0x01, "new": 0x02, "est": 0x04, "rel": 0x08, "rpl": 0x10, "inv": 0x20,
	}
	i := 0
	for i < len(s) {
		sign := s[i]
		if sign != '+' && sign != '-' {
			return 0, 0, fmt.Errorf("ovs: ct_state must be +flag/-flag sequences, got %q", s)
		}
		i++
		j := i
		for j < len(s) && s[j] != '+' && s[j] != '-' {
			j++
		}
		bit, ok := names[s[i:j]]
		if !ok {
			return 0, 0, fmt.Errorf("ovs: unknown ct_state flag %q", s[i:j])
		}
		bits |= bit
		if sign == '+' {
			value |= bit
		}
		i = j
	}
	return value, bits, nil
}

func refParseMAC(s string) (hdr.MAC, error) {
	var m hdr.MAC
	parts := strings.Split(s, ":")
	if len(parts) != 6 {
		return m, fmt.Errorf("ovs: bad MAC %q", s)
	}
	for i, p := range parts {
		b, err := strconv.ParseUint(p, 16, 8)
		if err != nil {
			return m, fmt.Errorf("ovs: bad MAC %q", s)
		}
		m[i] = byte(b)
	}
	return m, nil
}

func refParseIP(s string) (hdr.IP4, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("ovs: bad IPv4 address %q", s)
	}
	var octets [4]byte
	for i, p := range parts {
		b, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("ovs: bad IPv4 address %q", s)
		}
		octets[i] = byte(b)
	}
	return hdr.MakeIP4(octets[0], octets[1], octets[2], octets[3]), nil
}

func refParseCIDR(s string) (hdr.IP4, int, error) {
	addr, lenStr, hasLen := strings.Cut(s, "/")
	ip, err := refParseIP(addr)
	if err != nil {
		return 0, 0, err
	}
	plen := 32
	if hasLen {
		n, err := parseUint(lenStr, 8)
		if err != nil || n > 32 {
			return 0, 0, fmt.Errorf("ovs: bad prefix length %q", lenStr)
		}
		plen = int(n)
	}
	return ip, plen, nil
}
