// Package ofproto implements the OpenFlow processing layer of OVS: the
// multi-table rule pipeline NSX programs (Section 4), the priority-aware
// tuple-space classifier each table uses, and slow-path translation
// ("xlate") that turns a packet's walk through the pipeline into a
// wildcarded megaflow plus a concrete datapath action list — the mechanism
// that makes the megaflow cache of the userspace datapath work.
package ofproto

import (
	"fmt"

	"ovsxdp/internal/conntrack"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/tunnel"
)

// ActionType discriminates OpenFlow actions (the subset NSX's pipelines
// use).
type ActionType int

// Action types.
const (
	// ActionOutput sends the packet to a port.
	ActionOutput ActionType = iota
	// ActionGoto continues processing in a later table (resubmit).
	ActionGoto
	// ActionCT runs the packet through conntrack in a zone, optionally
	// committing, then recirculates into a table with ct_state set.
	ActionCT
	// ActionPushVLAN / ActionPopVLAN manage 802.1Q tags.
	ActionPushVLAN
	ActionPopVLAN
	// ActionSetEthSrc / ActionSetEthDst rewrite Ethernet addresses
	// (L3 gateway behaviour).
	ActionSetEthSrc
	ActionSetEthDst
	// ActionDecTTL decrements the IP TTL.
	ActionDecTTL
	// ActionSetTunnel attaches tunnel metadata; a following
	// ActionOutput to a tunnel port encapsulates.
	ActionSetTunnel
	// ActionTunnelPop decapsulates the packet and re-injects the inner
	// frame with the tunnel port as its input port (the datapath
	// tnl_pop).
	ActionTunnelPop
	// ActionMeter applies a rate limiter.
	ActionMeter
	// ActionSetCtMark sets the connection mark at commit.
	ActionSetCtMark
	// ActionDrop ends processing (explicit drop; an empty action list
	// drops too).
	ActionDrop
)

// Action is one OpenFlow action.
type Action struct {
	Type ActionType

	Port     uint32        // Output
	Table    uint8         // Goto, CT recirculation target
	VLAN     uint16        // PushVLAN: vid
	VLANPrio uint8         // PushVLAN: priority
	MAC      hdr.MAC       // SetEthSrc/SetEthDst
	Zone     uint16        // CT
	Commit   bool          // CT
	NAT      conntrack.NAT // CT
	Tunnel   tunnel.Config // SetTunnel
	MeterID  uint32        // Meter
	CtMark   uint32        // SetCtMark / CT commit
}

// String names the action for flow dumps.
func (a Action) String() string {
	switch a.Type {
	case ActionOutput:
		return fmt.Sprintf("output:%d", a.Port)
	case ActionGoto:
		return fmt.Sprintf("goto_table:%d", a.Table)
	case ActionCT:
		s := fmt.Sprintf("ct(zone=%d,table=%d", a.Zone, a.Table)
		if a.Commit {
			s += ",commit"
		}
		return s + ")"
	case ActionPushVLAN:
		return fmt.Sprintf("push_vlan:%d", a.VLAN)
	case ActionPopVLAN:
		return "pop_vlan"
	case ActionSetEthSrc:
		return fmt.Sprintf("set_eth_src:%s", a.MAC)
	case ActionSetEthDst:
		return fmt.Sprintf("set_eth_dst:%s", a.MAC)
	case ActionDecTTL:
		return "dec_ttl"
	case ActionSetTunnel:
		return fmt.Sprintf("set_tunnel:%d", a.Tunnel.VNI)
	case ActionTunnelPop:
		return fmt.Sprintf("tnl_pop:%d", a.Port)
	case ActionMeter:
		return fmt.Sprintf("meter:%d", a.MeterID)
	case ActionSetCtMark:
		return fmt.Sprintf("set_ct_mark:%#x", a.CtMark)
	case ActionDrop:
		return "drop"
	default:
		return fmt.Sprintf("action(%d)", int(a.Type))
	}
}

// Convenience constructors.

// Output builds an output action.
func Output(port uint32) Action { return Action{Type: ActionOutput, Port: port} }

// GotoTable builds a resubmit action.
func GotoTable(t uint8) Action { return Action{Type: ActionGoto, Table: t} }

// CT builds a conntrack action recirculating into table t.
func CT(zone uint16, commit bool, t uint8) Action {
	return Action{Type: ActionCT, Zone: zone, Commit: commit, Table: t}
}

// CTNat builds a conntrack action with NAT.
func CTNat(zone uint16, t uint8, nat conntrack.NAT) Action {
	return Action{Type: ActionCT, Zone: zone, Commit: true, Table: t, NAT: nat}
}

// PushVLAN builds a VLAN push.
func PushVLAN(vid uint16, prio uint8) Action {
	return Action{Type: ActionPushVLAN, VLAN: vid, VLANPrio: prio}
}

// PopVLAN builds a VLAN pop.
func PopVLAN() Action { return Action{Type: ActionPopVLAN} }

// SetEthSrc rewrites the source MAC.
func SetEthSrc(m hdr.MAC) Action { return Action{Type: ActionSetEthSrc, MAC: m} }

// SetEthDst rewrites the destination MAC.
func SetEthDst(m hdr.MAC) Action { return Action{Type: ActionSetEthDst, MAC: m} }

// DecTTL decrements the TTL.
func DecTTL() Action { return Action{Type: ActionDecTTL} }

// SetTunnel attaches tunnel output metadata.
func SetTunnel(cfg tunnel.Config) Action { return Action{Type: ActionSetTunnel, Tunnel: cfg} }

// TunnelPop decapsulates and re-injects with in_port = port.
func TunnelPop(port uint32) Action { return Action{Type: ActionTunnelPop, Port: port} }

// Meter applies meter id m.
func Meter(m uint32) Action { return Action{Type: ActionMeter, MeterID: m} }

// Drop ends processing.
func Drop() Action { return Action{Type: ActionDrop} }

// --- Datapath actions --------------------------------------------------------
//
// Translation compiles OpenFlow actions into this flat list, which is what
// megaflows store and what the datapath executes without consulting the
// OpenFlow tables again.

// DPActionType discriminates datapath actions.
type DPActionType int

// Datapath action types.
const (
	DPOutput DPActionType = iota
	DPCT                  // run conntrack then recirculate
	DPPushVLAN
	DPPopVLAN
	DPSetEthSrc
	DPSetEthDst
	DPDecTTL
	DPTunnelPush
	DPTunnelPop // decapsulate and reprocess with in_port = Port
	DPMeter
)

// DPAction is one datapath action.
type DPAction struct {
	Type DPActionType

	Port     uint32
	VLAN     uint16
	VLANPrio uint8
	MAC      hdr.MAC
	Zone     uint16
	Commit   bool
	NAT      conntrack.NAT
	RecircID uint32
	Tunnel   tunnel.Config
	MeterID  uint32
	CtMark   uint32
}

// String names the datapath action.
func (a DPAction) String() string {
	switch a.Type {
	case DPOutput:
		return fmt.Sprintf("out(%d)", a.Port)
	case DPCT:
		return fmt.Sprintf("ct(zone=%d,recirc=%d)", a.Zone, a.RecircID)
	case DPPushVLAN:
		return fmt.Sprintf("push_vlan(%d)", a.VLAN)
	case DPPopVLAN:
		return "pop_vlan"
	case DPSetEthSrc:
		return fmt.Sprintf("set_src(%s)", a.MAC)
	case DPSetEthDst:
		return fmt.Sprintf("set_dst(%s)", a.MAC)
	case DPDecTTL:
		return "dec_ttl"
	case DPTunnelPush:
		return fmt.Sprintf("tnl_push(vni=%d)", a.Tunnel.VNI)
	case DPTunnelPop:
		return fmt.Sprintf("tnl_pop(%d)", a.Port)
	case DPMeter:
		return fmt.Sprintf("meter(%d)", a.MeterID)
	default:
		return fmt.Sprintf("dp(%d)", int(a.Type))
	}
}

// Rewrite applies a to the packet's headers when it is one of the rewrite
// actions (VLAN push/pop, Ethernet address set, TTL decrement) and reports
// whether it was. The byte edits are the same wherever the action runs —
// a PMD thread, kernel softirq context, the NIC's offload engine — so they
// live here once; what a rewrite costs stays with each executor.
func (a *DPAction) Rewrite(p *packet.Packet) bool {
	switch a.Type {
	case DPPushVLAN:
		p.Data = hdr.PushVLAN(p.Data, a.VLAN, a.VLANPrio)
	case DPPopVLAN:
		p.Data = hdr.PopVLAN(p.Data)
	case DPSetEthSrc:
		if len(p.Data) >= 12 {
			copy(p.Data[6:12], a.MAC[:])
		}
	case DPSetEthDst:
		if len(p.Data) >= 6 {
			copy(p.Data[0:6], a.MAC[:])
		}
	case DPDecTTL:
		decTTL(p)
	default:
		return false
	}
	return true
}

func decTTL(p *packet.Packet) {
	eth, err := hdr.ParseEthernet(p.Data)
	if err != nil || eth.Type != hdr.EtherTypeIPv4 {
		return
	}
	raw := p.Data[eth.HeaderLen:]
	ip, err := hdr.ParseIPv4(raw)
	if err != nil || ip.TTL == 0 {
		return
	}
	ip.TTL--
	ip.SerializeTo(raw[:hdr.IPv4MinSize])
}
