package ofproto

import (
	"fmt"
	"slices"
	"sort"

	"ovsxdp/internal/flow"
	"ovsxdp/internal/sim"
)

// MaxTranslationDepth bounds goto chains during translation.
const MaxTranslationDepth = 64

// Megaflow is the result of slow-path translation: a wildcarded mask (the
// union of everything the pipeline examined while deciding) plus the
// concrete datapath actions. Installing (key.Apply(Mask), Mask, Actions)
// into the datapath classifier lets every packet that would have made the
// same decisions skip the OpenFlow tables entirely.
type Megaflow struct {
	Mask    flow.Mask
	Actions []DPAction
}

// Pipeline is the OpenFlow pipeline plus the recirculation registry and
// meters.
type Pipeline struct {
	tables map[uint8]*Table
	meters map[uint32]*TokenBucket

	// Recirculation: ct() allocates an id that maps back to the table
	// translation resumes in after the datapath re-injects the packet.
	recircByTable map[uint8]uint32
	recircTable   map[uint32]uint8
	nextRecirc    uint32

	// Translations counts slow-path upcalls translated.
	Translations uint64
}

// NewPipeline returns an empty pipeline.
func NewPipeline() *Pipeline {
	return &Pipeline{
		tables:        make(map[uint8]*Table),
		meters:        make(map[uint32]*TokenBucket),
		recircByTable: make(map[uint8]uint32),
		recircTable:   make(map[uint32]uint8),
		nextRecirc:    1,
	}
}

// Table returns (creating if needed) table id.
func (p *Pipeline) Table(id uint8) *Table {
	t, ok := p.tables[id]
	if !ok {
		t = NewTable(id)
		p.tables[id] = t
	}
	return t
}

// AddRule inserts a rule into its table.
func (p *Pipeline) AddRule(r *Rule) { p.Table(r.TableID).Insert(r) }

// RuleCount sums rules across tables (Table 3's "OpenFlow rules").
func (p *Pipeline) RuleCount() int {
	n := 0
	for _, t := range p.tables {
		n += t.Len()
	}
	return n
}

// TableCount returns the number of non-empty tables (Table 3's "OpenFlow
// tables").
func (p *Pipeline) TableCount() int { return len(p.TableIDs()) }

// FieldCount returns how many named rows of flow.MatchFields some rule's
// mask touches (Table 3's "matching fields among all rules").
func (p *Pipeline) FieldCount() int {
	var union flow.Mask
	for _, t := range p.tables {
		for _, r := range t.Rules() {
			union = union.Union(r.Match.Mask)
		}
	}
	touched := flow.SpecOf(flow.Key{}, union)
	n := 0
	for i := range flow.MatchFields {
		if r := &flow.MatchFields[i]; r.Name != "" && r.Get(&touched.Mask) != 0 {
			n++
		}
	}
	return n
}

// TableIDs lists non-empty table ids in order.
func (p *Pipeline) TableIDs() []uint8 {
	var ids []uint8
	for id, t := range p.tables {
		if t.Len() > 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// RecircTable resolves a recirculation id to its continuation table.
func (p *Pipeline) RecircTable(id uint32) (uint8, bool) {
	t, ok := p.recircTable[id]
	return t, ok
}

func (p *Pipeline) recircIDFor(table uint8) uint32 {
	if id, ok := p.recircByTable[table]; ok {
		return id
	}
	id := p.nextRecirc
	p.nextRecirc++
	p.recircByTable[table] = id
	p.recircTable[id] = table
	return id
}

// ErrTranslation reports a pipeline translation failure.
type ErrTranslation struct{ Reason string }

func (e ErrTranslation) Error() string { return "ofproto: translation failed: " + e.Reason }

// Translate runs slow-path translation for a flow key: walk the tables from
// the key's context (table 0, or the recirculation continuation), fold
// every mask the classifiers probed into the megaflow mask, and compile the
// matched rules' actions to datapath actions. A ct() action ends the walk —
// the post-conntrack passes are translated by their own upcalls, which is
// how each Figure 8 packet ends up traversing the datapath three times.
func (p *Pipeline) Translate(key flow.Key) (Megaflow, error) {
	p.Translations++
	// Every megaflow pins the input port and recirculation id, as OVS
	// does unconditionally.
	mask := flow.NewMaskBuilder().InPort().RecircID().Build()
	var actions []DPAction

	fields := key.Unpack()
	cur := uint8(0)
	if fields.RecircID != 0 {
		t, ok := p.RecircTable(fields.RecircID)
		if !ok {
			return Megaflow{}, ErrTranslation{fmt.Sprintf("unknown recirc id %d", fields.RecircID)}
		}
		cur = t
	}

	for depth := 0; ; depth++ {
		if depth >= MaxTranslationDepth {
			return Megaflow{}, ErrTranslation{"goto chain exceeds maximum depth"}
		}
		table, ok := p.tables[cur]
		if !ok {
			// Missing table: OpenFlow table-miss, drop.
			return Megaflow{Mask: mask, Actions: actions}, nil
		}
		rule, probed, _ := table.Lookup(key)
		mask = mask.Union(probed)
		if rule == nil {
			// Table-miss: drop (NSX installs explicit low-priority
			// rules where other behaviour is wanted).
			return Megaflow{Mask: mask, Actions: nil}, nil
		}

		x, err := p.xlate(rule)
		if err != nil {
			return Megaflow{}, err
		}
		if x.mask != nil {
			mask = mask.Union(*x.mask)
		}
		switch {
		case x.drop:
			actions = nil
		case actions == nil:
			// One rule's list, shared by every megaflow it decides.
			actions = x.actions
		default:
			// cap == len, so the append copies and the rule's list stays
			// intact.
			actions = append(actions, x.actions...)
		}
		if x.done {
			return Megaflow{Mask: mask, Actions: actions}, nil
		}
		cur = x.next
	}
}

// xlated is one rule's compiled datapath actions, memoized on the rule.
type xlated struct {
	// pl is the pipeline whose recirc ids the actions carry.
	pl *Pipeline
	// actions is shared by every translation that ends on the rule, so
	// nothing may write to it; cap == len makes an append copy it.
	actions []DPAction
	// mask is the bits the actions add to the megaflow (pop_vlan, dec_ttl),
	// or nil for none.
	mask *flow.Mask
	// drop discards every action translation has gathered, earlier tables'
	// included.
	drop bool
	// done ends translation (output, drop, ct, tnl_pop); otherwise it goes
	// on in table next.
	done bool
	next uint8
}

// xlate returns rule's compiled actions. They are compiled on the rule's
// first translation, which is when its ct() actions allocate their recirc
// ids, and reused after. A rule installed into two pipelines is compiled
// again when the other one translates it, so each gets its own recirc ids.
func (p *Pipeline) xlate(rule *Rule) (*xlated, error) {
	if rule.xl == nil || rule.xl.pl != p {
		x, err := p.compile(rule)
		if err != nil {
			return nil, err
		}
		rule.xl = x
	}
	return rule.xl, nil
}

// compile translates rule's actions on their own.
func (p *Pipeline) compile(rule *Rule) (*xlated, error) {
	x := &xlated{pl: p}
	var add flow.Mask
	var pendingTunnel *Action
	gotoNext := -1
actions:
	for i := range rule.Actions {
		a := &rule.Actions[i]
		switch a.Type {
		case ActionOutput:
			if pendingTunnel != nil {
				x.actions = append(x.actions, DPAction{Type: DPTunnelPush, Tunnel: pendingTunnel.Tunnel})
				pendingTunnel = nil
			}
			x.actions = append(x.actions, DPAction{Type: DPOutput, Port: a.Port})
		case ActionGoto:
			gotoNext = int(a.Table)
		case ActionCT:
			id := p.recircIDFor(a.Table)
			x.actions = append(x.actions, DPAction{
				Type: DPCT, Zone: a.Zone, Commit: a.Commit,
				NAT: a.NAT, RecircID: id,
			})
			// ct() ends this translation pass.
			gotoNext = -1
			break actions
		case ActionPushVLAN:
			x.actions = append(x.actions, DPAction{Type: DPPushVLAN, VLAN: a.VLAN, VLANPrio: a.VLANPrio})
		case ActionPopVLAN:
			// Popping requires knowing a tag is present.
			add = add.Union(flow.NewMaskBuilder().VLAN().Build())
			x.actions = append(x.actions, DPAction{Type: DPPopVLAN})
		case ActionSetEthSrc:
			x.actions = append(x.actions, DPAction{Type: DPSetEthSrc, MAC: a.MAC})
		case ActionSetEthDst:
			x.actions = append(x.actions, DPAction{Type: DPSetEthDst, MAC: a.MAC})
		case ActionDecTTL:
			add = add.Union(flow.NewMaskBuilder().IPTTL().Build())
			x.actions = append(x.actions, DPAction{Type: DPDecTTL})
		case ActionSetTunnel:
			cfg := *a
			pendingTunnel = &cfg
		case ActionTunnelPop:
			// Decapsulation ends this pass: the inner frame is
			// re-injected and translated by its own upcall.
			x.actions = append(x.actions, DPAction{Type: DPTunnelPop, Port: a.Port})
			gotoNext = -1
			break actions
		case ActionMeter:
			x.actions = append(x.actions, DPAction{Type: DPMeter, MeterID: a.MeterID})
		case ActionDrop:
			x.actions, x.drop, gotoNext = nil, true, -1
			break actions
		default:
			return nil, ErrTranslation{fmt.Sprintf("unhandled action %v", a)}
		}
	}
	if add != (flow.Mask{}) {
		x.mask = &add
	}
	x.actions = slices.Clip(x.actions)
	x.done, x.next = gotoNext < 0, uint8(gotoNext)
	return x, nil
}

// --- Meters -------------------------------------------------------------------

// TokenBucket is a meter: a rate limiter in packets/s or bits/s with a
// burst allowance. Section 6 notes traffic shaping is still missing from
// the userspace datapath and OVS "currently use[s] the OpenFlow meter
// action to support rate limiting".
type TokenBucket struct {
	// RatePerSec is the sustained rate (packets/s when PerPacket, else
	// bits/s).
	RatePerSec float64
	// Burst is the bucket depth, in the same unit.
	Burst float64
	// PerPacket selects packet-rate metering over bit-rate.
	PerPacket bool

	tokens float64
	last   sim.Time

	// Drops counts packets the meter rejected.
	Drops uint64
}

// SetMeter installs (or replaces) meter id.
func (p *Pipeline) SetMeter(id uint32, m *TokenBucket) {
	m.tokens = m.Burst
	p.meters[id] = m
}

// MeterAllow charges one packet of size bytes against meter id at virtual
// time now; it reports whether the packet conforms. Unknown meters allow
// everything.
func (p *Pipeline) MeterAllow(id uint32, bytes int, now sim.Time) bool {
	m, ok := p.meters[id]
	if !ok {
		return true
	}
	elapsed := now - m.last
	m.last = now
	m.tokens += elapsed.Seconds() * m.RatePerSec
	if m.tokens > m.Burst {
		m.tokens = m.Burst
	}
	cost := 1.0
	if !m.PerPacket {
		cost = float64(bytes) * 8
	}
	if m.tokens < cost {
		m.Drops++
		return false
	}
	m.tokens -= cost
	return true
}
