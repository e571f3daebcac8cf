package openflow

import (
	"encoding/binary"
	"fmt"

	"ovsxdp/internal/conntrack"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/tunnel"
)

// FlowMod commands.
const (
	FlowModAdd    = 0
	FlowModDelete = 3
)

// Instruction types (OpenFlow 1.3).
const (
	instrGotoTable    = 1
	instrApplyActions = 4
	instrMeter        = 6
)

// Action types.
const (
	actOutput   = 0
	actPushVLAN = 17
	actPopVLAN  = 18
	actDecTTL   = 24
	actSetField = 25
	actExp      = 0xffff
)

// Nicira experimenter id and subtypes.
const (
	niciraExperimenter = 0x00002320
	nxastCT            = 35
	nxastTunnelKind    = 36
	nxastTunnelPop     = 37
	nxastDrop          = 38
)

// The rows of flow.MatchFields a set-field action may name.
var (
	fieldEthDst = flow.MatchFieldByName("dl_dst")
	fieldEthSrc = flow.MatchFieldByName("dl_src")
	fieldVLAN   = flow.MatchFieldByName("dl_vlan")
	fieldTunID  = flow.MatchFieldByName("tun_id")
	fieldTunSrc = flow.MatchFieldByName("tun_src")
	fieldTunDst = flow.MatchFieldByName("tun_dst")
)

// The bytes a decoder reads from each instruction, action and Nicira action
// body (after its 4-byte type/length header); a length field may claim less,
// and types not listed read nothing.
var (
	instrMinBody = map[uint16]int{instrGotoTable: 1, instrMeter: 4, instrApplyActions: 4}
	actMinBody   = map[uint16]int{actOutput: 4, actSetField: 4, actExp: 6}
	nxastMinBody = map[uint16]int{nxastTunnelKind: 7, nxastTunnelPop: 12, nxastCT: 24}
)

// FlowMod is a decoded flow modification.
type FlowMod struct {
	Command  uint8
	TableID  uint8
	Priority int
	Cookie   uint64
	Match    ofproto.Match
	Actions  []ofproto.Action
}

// AddFlow is the flow mod that installs rule r.
func AddFlow(r *ofproto.Rule) FlowMod {
	return FlowMod{Command: FlowModAdd, TableID: r.TableID, Priority: r.Priority,
		Cookie: r.Cookie, Match: r.Match, Actions: r.Actions}
}

// EncodeFlowMod serializes a flow mod message body.
func EncodeFlowMod(fm FlowMod) Message {
	// Fixed part: cookie(8) cookie_mask(8) table(1) command(1)
	// idle(2) hard(2) priority(2) buffer(4) out_port(4) out_group(4)
	// flags(2) pad(2) = 40 bytes, then match, then instructions.
	fixed := make([]byte, 40)
	binary.BigEndian.PutUint64(fixed[0:8], fm.Cookie)
	fixed[16] = fm.TableID
	fixed[17] = fm.Command
	binary.BigEndian.PutUint16(fixed[22:24], uint16(fm.Priority))
	match := EncodeMatch(fm.Match)
	instrs := encodeInstructions(fm.Actions)
	body := append(append(fixed, match...), instrs...)
	return Message{Type: TypeFlowMod, Body: body}
}

// DecodeFlowMod parses a flow mod message.
func DecodeFlowMod(m Message) (FlowMod, error) {
	var fm FlowMod
	if m.Type != TypeFlowMod {
		return fm, fmt.Errorf("openflow: not a flow mod")
	}
	if len(m.Body) < 40 {
		return fm, fmt.Errorf("openflow: flow mod too short")
	}
	fm.Cookie = binary.BigEndian.Uint64(m.Body[0:8])
	fm.TableID = m.Body[16]
	fm.Command = m.Body[17]
	fm.Priority = int(binary.BigEndian.Uint16(m.Body[22:24]))
	match, n, err := DecodeMatch(m.Body[40:])
	if err != nil {
		return fm, err
	}
	fm.Match = match
	actions, err := decodeInstructions(m.Body[40+n:])
	if err != nil {
		return fm, err
	}
	fm.Actions = actions
	return fm, nil
}

// encodeInstructions compiles ofproto actions into OpenFlow instructions:
// apply-actions for the action list, plus goto-table / meter instructions.
func encodeInstructions(actions []ofproto.Action) []byte {
	var applied []byte
	var tail []byte // goto/meter instructions

	u16 := func(b []byte, off int, v uint16) { binary.BigEndian.PutUint16(b[off:], v) }
	u32 := func(b []byte, off int, v uint32) { binary.BigEndian.PutUint32(b[off:], v) }

	addAction := func(b []byte) { applied = append(applied, b...) }

	// emitSetField writes field r of f as a set-field action; the padding
	// to 8 is the zeroed spare capacity of b.
	emitSetField := func(r *flow.MatchField, f flow.Fields) {
		total := pad8(8 + r.Width)
		b := make([]byte, 8, total)
		u16(b, 0, actSetField)
		u16(b, 2, uint16(total))
		u16(b, 4, r.OXMClass)
		b[6] = r.OXMField << 1
		b[7] = uint8(r.Width)
		addAction(appendUint(b, r.Get(&f), r.Width)[:total])
	}

	for _, a := range actions {
		switch a.Type {
		case ofproto.ActionOutput:
			b := make([]byte, 16)
			u16(b, 0, actOutput)
			u16(b, 2, 16)
			u32(b, 4, a.Port)
			u16(b, 8, 0xffff) // max_len
			addAction(b)
		case ofproto.ActionPushVLAN:
			b := make([]byte, 8)
			u16(b, 0, actPushVLAN)
			u16(b, 2, 8)
			u16(b, 4, uint16(hdr.EtherTypeVLAN))
			addAction(b)
			// The VID itself travels as a set-field.
			emitSetField(fieldVLAN, flow.Fields{VLANTCI: a.VLAN | uint16(a.VLANPrio)<<13})
		case ofproto.ActionPopVLAN:
			b := make([]byte, 8)
			u16(b, 0, actPopVLAN)
			u16(b, 2, 8)
			addAction(b)
		case ofproto.ActionDecTTL:
			b := make([]byte, 8)
			u16(b, 0, actDecTTL)
			u16(b, 2, 8)
			addAction(b)
		case ofproto.ActionSetEthSrc:
			emitSetField(fieldEthSrc, flow.Fields{EthSrc: a.MAC})
		case ofproto.ActionSetEthDst:
			emitSetField(fieldEthDst, flow.Fields{EthDst: a.MAC})
		case ofproto.ActionSetTunnel:
			// tun_id + endpoints as set-fields, kind via experimenter.
			emitSetField(fieldTunID, flow.Fields{TunVNI: a.Tunnel.VNI})
			emitSetField(fieldTunSrc, flow.Fields{TunSrc: a.Tunnel.LocalIP})
			emitSetField(fieldTunDst, flow.Fields{TunDst: a.Tunnel.RemoteIP})
			b := make([]byte, 16)
			u16(b, 0, actExp)
			u16(b, 2, 16)
			u32(b, 4, niciraExperimenter)
			u16(b, 8, nxastTunnelKind)
			b[10] = byte(a.Tunnel.Kind)
			addAction(b)
		case ofproto.ActionTunnelPop:
			b := make([]byte, 16)
			u16(b, 0, actExp)
			u16(b, 2, 16)
			u32(b, 4, niciraExperimenter)
			u16(b, 8, nxastTunnelPop)
			u32(b, 12, a.Port)
			addAction(b)
		case ofproto.ActionCT:
			// NXAST_CT: flags, zone, recirc table, NAT.
			b := make([]byte, 32)
			u16(b, 0, actExp)
			u16(b, 2, 32)
			u32(b, 4, niciraExperimenter)
			u16(b, 8, nxastCT)
			flags := uint16(0)
			if a.Commit {
				flags |= 1
			}
			u16(b, 10, flags)
			u16(b, 12, a.Zone)
			b[14] = a.Table
			b[15] = byte(a.NAT.Kind)
			u32(b, 16, uint32(a.NAT.Addr))
			u16(b, 20, a.NAT.Port)
			u32(b, 24, a.CtMark)
			addAction(b)
		case ofproto.ActionDrop:
			b := make([]byte, 16)
			u16(b, 0, actExp)
			u16(b, 2, 16)
			u32(b, 4, niciraExperimenter)
			u16(b, 8, nxastDrop)
			addAction(b)
		case ofproto.ActionGoto:
			b := make([]byte, 8)
			u16(b, 0, instrGotoTable)
			u16(b, 2, 8)
			b[4] = a.Table
			tail = append(tail, b...)
		case ofproto.ActionMeter:
			b := make([]byte, 8)
			u16(b, 0, instrMeter)
			u16(b, 2, 8)
			u32(b, 4, a.MeterID)
			tail = append(tail, b...)
		case ofproto.ActionSetCtMark:
			// Carried inside the CT action encoding above.
		}
	}

	var out []byte
	if len(applied) > 0 {
		hdrB := make([]byte, 8)
		binary.BigEndian.PutUint16(hdrB[0:2], instrApplyActions)
		binary.BigEndian.PutUint16(hdrB[2:4], uint16(8+len(applied)))
		out = append(out, hdrB...)
		out = append(out, applied...)
	}
	return append(out, tail...)
}

// decodeInstructions parses instructions back to ofproto actions, keeping
// the order: applied actions first, then goto/meter.
func decodeInstructions(b []byte) ([]ofproto.Action, error) {
	var actions []ofproto.Action
	var gotos []ofproto.Action
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("openflow: truncated instruction")
		}
		it := binary.BigEndian.Uint16(b[0:2])
		il := int(binary.BigEndian.Uint16(b[2:4]))
		if il < 4 || il > len(b) {
			return nil, fmt.Errorf("openflow: bad instruction length %d", il)
		}
		body := b[4:il]
		if len(body) < instrMinBody[it] {
			return nil, fmt.Errorf("openflow: instruction %d has a %d-byte body, needs %d", it, len(body), instrMinBody[it])
		}
		switch it {
		case instrGotoTable:
			gotos = append(gotos, ofproto.GotoTable(body[0]))
		case instrMeter:
			gotos = append(gotos, ofproto.Meter(binary.BigEndian.Uint32(body[0:4])))
		case instrApplyActions:
			acts, err := decodeActions(body[4:]) // skip 4-byte pad
			if err != nil {
				return nil, err
			}
			actions = append(actions, acts...)
		default:
			return nil, fmt.Errorf("openflow: unsupported instruction %d", it)
		}
		b = b[il:]
	}
	// Meters apply before output in our model; preserve goto at the end.
	return reorderMeters(actions, gotos), nil
}

// reorderMeters puts meter actions before the action list and gotos after,
// matching how the pipeline interprets them.
func reorderMeters(actions, tail []ofproto.Action) []ofproto.Action {
	var meters, gotos []ofproto.Action
	for _, a := range tail {
		if a.Type == ofproto.ActionMeter {
			meters = append(meters, a)
		} else {
			gotos = append(gotos, a)
		}
	}
	out := append(meters, actions...)
	return append(out, gotos...)
}

// decodeActions parses an action list. OpenFlow pads apply-actions bodies;
// our encoder emits no leading pad, so the caller skips the 4 instruction
// pad bytes before calling.
func decodeActions(b []byte) ([]ofproto.Action, error) {
	var out []ofproto.Action
	var pendingTunnel *tunnel.Config
	flushTunnel := func() {
		if pendingTunnel != nil {
			out = append(out, ofproto.SetTunnel(*pendingTunnel))
			pendingTunnel = nil
		}
	}
	tunnelCfg := func() *tunnel.Config {
		if pendingTunnel == nil {
			pendingTunnel = &tunnel.Config{}
		}
		return pendingTunnel
	}
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("openflow: truncated action")
		}
		at := binary.BigEndian.Uint16(b[0:2])
		al := int(binary.BigEndian.Uint16(b[2:4]))
		if al < 4 || al > len(b) {
			return nil, fmt.Errorf("openflow: bad action length %d", al)
		}
		body := b[4:al]
		if len(body) < actMinBody[at] {
			return nil, fmt.Errorf("openflow: action %d has a %d-byte body, needs %d", at, len(body), actMinBody[at])
		}
		switch at {
		case actOutput:
			flushTunnel()
			out = append(out, ofproto.Output(binary.BigEndian.Uint32(body[0:4])))
		case actPushVLAN:
			// The VID arrives in the following set-field; emit a
			// placeholder updated there.
			out = append(out, ofproto.PushVLAN(0, 0))
		case actPopVLAN:
			out = append(out, ofproto.PopVLAN())
		case actDecTTL:
			out = append(out, ofproto.DecTTL())
		case actSetField:
			class := binary.BigEndian.Uint16(body[0:2])
			field := body[2] >> 1
			vlen := int(body[3])
			if len(body) < 4+vlen {
				return nil, fmt.Errorf("openflow: set-field value overrun")
			}
			r := flow.MatchFieldByOXM(class, field)
			if r == nil {
				return nil, fmt.Errorf("openflow: unsupported set-field %d/%d", class, field)
			}
			if vlen != r.Width {
				return nil, fmt.Errorf("openflow: set-field %d/%d carries %d bytes, needs %d", class, field, vlen, r.Width)
			}
			var set flow.Fields
			r.Set(&set, readUint(body[4:4+vlen]))
			switch r {
			case fieldEthSrc:
				out = append(out, ofproto.SetEthSrc(set.EthSrc))
			case fieldEthDst:
				out = append(out, ofproto.SetEthDst(set.EthDst))
			case fieldVLAN:
				// Update the preceding push_vlan placeholder.
				for i := len(out) - 1; i >= 0; i-- {
					if out[i].Type == ofproto.ActionPushVLAN {
						out[i].VLAN = set.VLANTCI & 0x0fff
						out[i].VLANPrio = uint8(set.VLANTCI >> 13)
						break
					}
				}
			case fieldTunID:
				tunnelCfg().VNI = set.TunVNI
			case fieldTunSrc:
				tunnelCfg().LocalIP = set.TunSrc
			case fieldTunDst:
				tunnelCfg().RemoteIP = set.TunDst
			default:
				return nil, fmt.Errorf("openflow: unsupported set-field %d/%d", class, field)
			}
		case actExp:
			expID := binary.BigEndian.Uint32(body[0:4])
			if expID != niciraExperimenter {
				return nil, fmt.Errorf("openflow: unknown experimenter %#x", expID)
			}
			sub := binary.BigEndian.Uint16(body[4:6])
			if len(body) < nxastMinBody[sub] {
				return nil, fmt.Errorf("openflow: Nicira action %d has a %d-byte body, needs %d", sub, len(body), nxastMinBody[sub])
			}
			switch sub {
			case nxastTunnelKind:
				tunnelCfg().Kind = tunnel.Kind(body[6])
			case nxastTunnelPop:
				out = append(out, ofproto.TunnelPop(binary.BigEndian.Uint32(body[8:12])))
			case nxastCT:
				flags := binary.BigEndian.Uint16(body[6:8])
				a := ofproto.Action{
					Type:   ofproto.ActionCT,
					Commit: flags&1 != 0,
					Zone:   binary.BigEndian.Uint16(body[8:10]),
					Table:  body[10],
					NAT: conntrack.NAT{
						Kind: conntrack.NATKind(body[11]),
						Addr: hdr.IP4(binary.BigEndian.Uint32(body[12:16])),
						Port: binary.BigEndian.Uint16(body[16:18]),
					},
					CtMark: binary.BigEndian.Uint32(body[20:24]),
				}
				out = append(out, a)
			case nxastDrop:
				out = append(out, ofproto.Drop())
			default:
				return nil, fmt.Errorf("openflow: unknown Nicira subtype %d", sub)
			}
		default:
			return nil, fmt.Errorf("openflow: unsupported action %d", at)
		}
		b = b[al:]
	}
	flushTunnel()
	return out, nil
}
