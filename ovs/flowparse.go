package ovs

import (
	"fmt"
	"strconv"
	"strings"

	"ovsxdp/internal/conntrack"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/tunnel"
)

// ParseFlow parses an ovs-ofctl-style flow specification into a rule.
//
// Matches (comma separated, before "actions="): the rule's table=N
// priority=N cookie=0xN, the keywords of flow.MatchKeywords
//
//	ip arp tcp udp icmp
//
// and name=value for each named row of flow.MatchFields, in the row's syntax
//
//	in_port=N dl_dst=MAC dl_src=MAC dl_type=0xNNNN dl_vlan=VID nw_proto=N
//	nw_src=a.b.c.d[/len] nw_dst=a.b.c.d[/len] nw_ttl=N tp_src=N tp_dst=N
//	tun_id=N tun_src=IP tun_dst=IP ct_state=+trk+est-new ct_zone=N ct_mark=N
//
// Actions (comma separated after "actions="):
//
//	output:N drop goto_table:N meter:N push_vlan:VID pop_vlan
//	mod_dl_src:MAC mod_dl_dst:MAC dec_ttl
//	ct(commit,zone=N,table=N[,nat(snat=IP[:port])|nat(dnat=IP[:port])])
//	set_tunnel(kind=geneve,vni=N,local=IP,remote=IP) tnl_pop:N
//
// Example:
//
//	"table=0,priority=100,in_port=1,ip,tcp,tp_dst=80,actions=ct(commit,zone=5,table=10)"
func ParseFlow(spec string) (*ofproto.Rule, error) {
	matchPart, actionPart, ok := strings.Cut(spec, "actions=")
	if !ok {
		return nil, fmt.Errorf("ovs: flow %q has no actions=", spec)
	}
	matchPart = strings.TrimSuffix(strings.TrimSpace(matchPart), ",")

	rule := &ofproto.Rule{Priority: 1}
	var match flow.MatchSpec
	for _, tok := range splitTop(matchPart) {
		if tok == "" {
			continue
		}
		key, val, _ := strings.Cut(tok, "=")
		var n uint64
		var err error
		switch key {
		case "table":
			n, err = parseUint(val, 8)
			rule.TableID = uint8(n)
		case "priority":
			n, err = parseUint(val, 16)
			rule.Priority = int(n)
		case "cookie":
			rule.Cookie, err = strconv.ParseUint(strings.TrimPrefix(val, "0x"), 16, 64)
		default:
			err = match.AddText(key, val)
		}
		if err != nil {
			return nil, fmt.Errorf("ovs: match %q: %w", tok, err)
		}
	}
	rule.Match = ofproto.NewMatch(match.Value, match.PackMask())

	actions, err := parseActions(actionPart)
	if err != nil {
		return nil, err
	}
	rule.Actions = actions
	return rule, nil
}

// parseActions parses the action list.
func parseActions(s string) ([]ofproto.Action, error) {
	var out []ofproto.Action
	for _, tok := range splitTop(strings.TrimSpace(s)) {
		if tok == "" {
			continue
		}
		switch {
		case tok == "drop":
			out = append(out, ofproto.Drop())
		case tok == "pop_vlan":
			out = append(out, ofproto.PopVLAN())
		case tok == "dec_ttl":
			out = append(out, ofproto.DecTTL())
		case strings.HasPrefix(tok, "output:"):
			n, err := parseUint(tok[len("output:"):], 32)
			if err != nil {
				return nil, err
			}
			out = append(out, ofproto.Output(uint32(n)))
		case strings.HasPrefix(tok, "goto_table:"):
			n, err := parseUint(tok[len("goto_table:"):], 8)
			if err != nil {
				return nil, err
			}
			out = append(out, ofproto.GotoTable(uint8(n)))
		case strings.HasPrefix(tok, "meter:"):
			n, err := parseUint(tok[len("meter:"):], 32)
			if err != nil {
				return nil, err
			}
			out = append(out, ofproto.Meter(uint32(n)))
		case strings.HasPrefix(tok, "push_vlan:"):
			n, err := parseUint(tok[len("push_vlan:"):], 12)
			if err != nil {
				return nil, err
			}
			out = append(out, ofproto.PushVLAN(uint16(n), 0))
		case strings.HasPrefix(tok, "mod_dl_src:"):
			mac, err := hdr.ParseMAC(tok[len("mod_dl_src:"):])
			if err != nil {
				return nil, err
			}
			out = append(out, ofproto.SetEthSrc(mac))
		case strings.HasPrefix(tok, "mod_dl_dst:"):
			mac, err := hdr.ParseMAC(tok[len("mod_dl_dst:"):])
			if err != nil {
				return nil, err
			}
			out = append(out, ofproto.SetEthDst(mac))
		case strings.HasPrefix(tok, "tnl_pop:"):
			n, err := parseUint(tok[len("tnl_pop:"):], 32)
			if err != nil {
				return nil, err
			}
			out = append(out, ofproto.TunnelPop(uint32(n)))
		case strings.HasPrefix(tok, "ct(") && strings.HasSuffix(tok, ")"):
			a, err := parseCtAction(tok[3 : len(tok)-1])
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		case strings.HasPrefix(tok, "set_tunnel(") && strings.HasSuffix(tok, ")"):
			a, err := parseSetTunnel(tok[len("set_tunnel(") : len(tok)-1])
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		default:
			return nil, fmt.Errorf("ovs: unknown action %q", tok)
		}
	}
	return out, nil
}

func parseCtAction(body string) (ofproto.Action, error) {
	a := ofproto.Action{Type: ofproto.ActionCT}
	for _, part := range splitTop(body) {
		key, val, _ := strings.Cut(part, "=")
		switch {
		case part == "commit":
			a.Commit = true
		case key == "zone":
			n, err := parseUint(val, 16)
			if err != nil {
				return a, err
			}
			a.Zone = uint16(n)
		case key == "table":
			n, err := parseUint(val, 8)
			if err != nil {
				return a, err
			}
			a.Table = uint8(n)
		case strings.HasPrefix(part, "nat(") && strings.HasSuffix(part, ")"):
			nat, err := parseNat(part[4 : len(part)-1])
			if err != nil {
				return a, err
			}
			a.NAT = nat
		default:
			return a, fmt.Errorf("ovs: unknown ct() argument %q", part)
		}
	}
	return a, nil
}

func parseNat(body string) (conntrack.NAT, error) {
	var nat conntrack.NAT
	key, val, ok := strings.Cut(body, "=")
	if !ok {
		return nat, fmt.Errorf("ovs: bad nat spec %q", body)
	}
	switch key {
	case "snat":
		nat.Kind = conntrack.SNAT
	case "dnat":
		nat.Kind = conntrack.DNAT
	default:
		return nat, fmt.Errorf("ovs: nat kind %q", key)
	}
	addr, portStr, hasPort := strings.Cut(val, ":")
	ip, err := hdr.ParseIP4(addr)
	if err != nil {
		return nat, err
	}
	nat.Addr = ip
	if hasPort {
		if loStr, hiStr, isRange := strings.Cut(portStr, "-"); isRange {
			// "lo-hi" selects dynamic allocation from the range.
			lo, err := parseUint(loStr, 16)
			if err != nil {
				return nat, err
			}
			hi, err := parseUint(hiStr, 16)
			if err != nil {
				return nat, err
			}
			if lo == 0 || hi < lo {
				return nat, fmt.Errorf("ovs: bad nat port range %q", portStr)
			}
			nat.PortLo, nat.PortHi = uint16(lo), uint16(hi)
			return nat, nil
		}
		n, err := parseUint(portStr, 16)
		if err != nil {
			return nat, err
		}
		nat.Port = uint16(n)
	}
	return nat, nil
}

func parseSetTunnel(body string) (ofproto.Action, error) {
	cfg := tunnel.Config{Kind: tunnel.Geneve}
	for _, part := range splitTop(body) {
		key, val, _ := strings.Cut(part, "=")
		switch key {
		case "kind":
			switch val {
			case "geneve":
				cfg.Kind = tunnel.Geneve
			case "vxlan":
				cfg.Kind = tunnel.VXLAN
			case "gre":
				cfg.Kind = tunnel.GRE
			default:
				return ofproto.Action{}, fmt.Errorf("ovs: tunnel kind %q", val)
			}
		case "vni":
			n, err := parseUint(val, 32)
			if err != nil {
				return ofproto.Action{}, err
			}
			cfg.VNI = uint32(n)
		case "local":
			ip, err := hdr.ParseIP4(val)
			if err != nil {
				return ofproto.Action{}, err
			}
			cfg.LocalIP = ip
		case "remote":
			ip, err := hdr.ParseIP4(val)
			if err != nil {
				return ofproto.Action{}, err
			}
			cfg.RemoteIP = ip
		default:
			return ofproto.Action{}, fmt.Errorf("ovs: unknown set_tunnel argument %q", part)
		}
	}
	return ofproto.SetTunnel(cfg), nil
}

// splitTop splits on commas not inside parentheses.
func splitTop(s string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

func parseUint(s string, bits int) (uint64, error) {
	n, err := strconv.ParseUint(s, 10, bits)
	if err != nil {
		return 0, fmt.Errorf("ovs: bad number %q", s)
	}
	return n, nil
}
