package dpif_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"ovsxdp/internal/conntrack"
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/netlinksim"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/tunnel"
)

// The oracle: every provider, under every cache, offload and slow-path
// configuration, must forward exactly like refDatapath, an obviously-correct
// datapath with go-odp's stated semantics — installed megaflows are scanned
// in order, the first match wins, and no match is a miss. It keeps its own
// pipeline (built by the same constructor, so meter buckets are not shared),
// conntrack table and flow list, and runs actions on a private copy of each
// frame. A rule change goes into both pipelines; the datapath then runs
// dpif.Revalidate and the reference its own plain pass over its list. Ops
// come from a byte stream, so FuzzDatapathOps explores the same space
// TestDatapathMatchesReference samples.

// Time in a trace moves in steps of 4ms; every expiry the trace can reach
// (a negative flow's costmodel.NegativeFlowTTL and the ct timeouts below)
// sits half a step off that grid, more than a queued upcall (20us a pass)
// can shift it, so inline and queued slow paths expire the same flows and
// connections before the same op.
const (
	oracleStep = 4 * sim.Millisecond
	oracleNear = 12 * sim.Millisecond // past the negative flows
	oracleFar  = 44 * sim.Millisecond // past every ct timeout below
)

var oracleCtTimeouts = conntrack.Timeouts{
	SynSent:     30 * sim.Millisecond,
	Established: 42 * sim.Millisecond,
	UDP:         22 * sim.Millisecond,
	Fin:         14 * sim.Millisecond,
}

var (
	oracleVTEP, oracleRemote = hdr.MakeIP4(172, 16, 0, 1), hdr.MakeIP4(172, 16, 0, 2)
	oracleMAC1, oracleMAC2   = hdr.MAC{2, 0xaa, 0, 0, 0, 1}, hdr.MAC{2, 0xbb, 0, 0, 0, 1}
	oracleIP1, oracleIP2     = hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2)
)

const (
	oracleTunPort  = 100 // the virtual port a tnl_pop recirculates on
	oracleFailPort = 53  // UDP to this port is the key class whose upcalls fail
)

// oraclePipeline reaches every datapath action: outputs, two outputs in one
// list, a rewrite-only list, ct(commit) and ct without commit into a
// recirculation table, push/pop VLAN, set_eth, dec_ttl, tnl_pop (of real and
// of not-a-tunnel frames), tnl_push, a meter that passes three packets and
// never refills, an explicit drop, a goto chain and table misses. Every rule
// of table 0, those a trace adds included (oracleRuleChange), is under the
// highest-priority one, which matches the failing key class, so every
// megaflow's mask decides that class: a megaflow never covers both a
// negative flow's key and a key that translates.
func oraclePipeline() *ofproto.Pipeline {
	pl := ofproto.NewPipeline()
	// l4 matches an IP protocol, on inPort unless it is 0, to tpDst unless
	// it is 0.
	l4 := func(inPort uint32, proto hdr.IPProto, tpDst uint16) ofproto.Match {
		mb := flow.NewMaskBuilder().EthType().IPProto()
		f := flow.Fields{InPort: inPort, EthType: hdr.EtherTypeIPv4, IPProto: proto, TPDst: tpDst}
		if inPort != 0 {
			mb.InPort()
		}
		if tpDst != 0 {
			mb.TPDst()
		}
		return ofproto.NewMatch(f, mb.Build())
	}
	rule := func(table uint8, prio int, m ofproto.Match, a ...ofproto.Action) {
		pl.AddRule(&ofproto.Rule{TableID: table, Priority: prio, Match: m, Actions: a})
	}
	udp, tcp, icmp := hdr.IPProtoUDP, hdr.IPProtoTCP, hdr.IPProtoICMP

	rule(0, 100, l4(0, udp, oracleFailPort), ofproto.Output(4))
	rule(0, 90, l4(1, udp, hdr.GenevePort), ofproto.TunnelPop(oracleTunPort))
	rule(0, 50, l4(1, udp, 0), ofproto.Output(2))
	rule(0, 50, l4(1, tcp, 0), ofproto.CT(1, true, 1))
	rule(0, 50, l4(1, icmp, 0), ofproto.Meter(1), ofproto.Output(3))
	rule(0, 40, l4(2, udp, 0), ofproto.Output(1), ofproto.PushVLAN(7, 0), ofproto.Output(3))
	rule(0, 40, l4(2, tcp, 0), ofproto.PushVLAN(5, 0))
	rule(0, 40, l4(2, icmp, 0), ofproto.SetEthSrc(hdr.MAC{2, 0xcc, 0, 0, 0, 1}), ofproto.GotoTable(2))
	rule(0, 40, l4(3, udp, 0), ofproto.SetTunnel(tunnel.Config{Kind: tunnel.Geneve,
		LocalIP: oracleVTEP, RemoteIP: oracleRemote, VNI: 5001}), ofproto.Output(4))
	rule(0, 40, l4(3, tcp, 0), ofproto.CT(2, false, 1))
	rule(0, 40, l4(4, udp, 0), ofproto.PopVLAN(), ofproto.Output(1))
	rule(0, 40, l4(4, tcp, 0), ofproto.Drop())
	rule(0, 40, l4(4, icmp, 0), ofproto.TunnelPop(oracleTunPort))
	rule(0, 30, ofproto.NewMatch(flow.Fields{InPort: oracleTunPort}, flow.NewMaskBuilder().InPort().Build()),
		ofproto.Output(3))

	est := packet.CtTracked | packet.CtEstablished
	rule(1, 20, ofproto.NewMatch(flow.Fields{CtState: uint8(est)}, flow.NewMaskBuilder().CtState(uint8(est)).Build()),
		ofproto.Output(3))
	trkNew := packet.CtTracked | packet.CtNew
	rule(1, 10, ofproto.NewMatch(flow.Fields{CtState: uint8(trkNew)}, flow.NewMaskBuilder().CtState(uint8(trkNew)).Build()),
		ofproto.Output(2))

	rule(2, 10, ofproto.MatchAny(), ofproto.DecTTL(), ofproto.SetEthDst(hdr.MAC{2, 0xdd, 0, 0, 0, 1}), ofproto.GotoTable(3))
	rule(3, 10, ofproto.MatchAny(), ofproto.Output(1))

	pl.SetMeter(1, &ofproto.TokenBucket{RatePerSec: 0, Burst: 3, PerPacket: true})
	return pl
}

// oracleEncapper resolves the tunnel's remote next hop.
func oracleEncapper() *tunnel.Encapper {
	kern := netlinksim.NewKernel()
	idx, _ := kern.AddLink("uplink", "mlx5", hdr.MAC{2, 0xff, 0, 0, 0, 1}, 1600)
	kern.AddAddr("uplink", oracleVTEP, 16)
	kern.AddNeigh(netlinksim.Neigh{IP: oracleRemote, MAC: hdr.MAC{2, 0xff, 0, 0, 0, 2}, LinkIndex: idx})
	return tunnel.NewEncapper(netlinksim.NewCache(kern))
}

// oracleFrame builds the frame of one key class and variant v (0..3).
func oracleFrame(class, v int) []byte {
	udp := func(sport, dport uint16) []byte {
		return hdr.NewBuilder().Eth(oracleMAC1, oracleMAC2).IPv4H(oracleIP1, oracleIP2, 64).
			UDPH(sport, dport).PadTo(64).Build()
	}
	tcp := func(flags uint8) []byte {
		b := hdr.NewBuilder().Eth(oracleMAC1, oracleMAC2)
		if v >= 2 { // the reply direction
			return b.IPv4H(oracleIP2, oracleIP1, 64).TCPH(80, uint16(3000+v%2), 7, 1, flags).PadTo(64).Build()
		}
		return b.IPv4H(oracleIP1, oracleIP2, 64).TCPH(uint16(3000+v%2), 80, 1, 7, flags).PadTo(64).Build()
	}
	switch class {
	case 0:
		if v == 3 {
			return hdr.NewBuilder().Eth(oracleMAC1, oracleMAC2).VLAN(9, 0).IPv4H(oracleIP1, oracleIP2, 64).
				UDPH(1000, 2000).PadTo(68).Build()
		}
		return udp(uint16(1000+v), 2000)
	case 1:
		return udp(uint16(1000+v), oracleFailPort)
	case 2:
		return tcp(hdr.TCPSyn)
	case 3:
		return tcp(hdr.TCPAck)
	case 4:
		return tcp(hdr.TCPFin | hdr.TCPAck)
	case 5:
		return hdr.NewBuilder().Eth(oracleMAC1, oracleMAC2).IPv4H(oracleIP1, oracleIP2, 64).
			ICMPH(hdr.ICMPEchoRequest, 0, uint16(v), 1).PadTo(64).Build()
	case 6: // truncated IPv4: the Ethernet header announces 20 bytes, 4 follow
		data := make([]byte, hdr.EthernetSize+4)
		copy(data, oracleMAC2[:])
		copy(data[6:], oracleMAC1[:])
		data[12], data[13] = 0x08, 0x00
		return data
	default:
		if v == 3 { // Geneve's port, not a Geneve header
			return udp(1000, hdr.GenevePort)
		}
		return hdr.EncapGeneve(udp(uint16(1000+v), 2000), hdr.MAC{2, 0xee, 0, 0, 0, 1}, oracleMAC2,
			oracleRemote, oracleVTEP, 0xc000, uint32(7+v), nil)
	}
}

// oracleConfig is one datapath configuration the oracle runs a trace on.
type oracleConfig struct {
	typ                 string
	emc, smc, hwOffload bool
	queued              bool // kernel providers take it from the trace instead
}

func (c oracleConfig) String() string {
	if c.typ != "netdev" {
		return c.typ
	}
	return fmt.Sprintf("netdev/emc=%v,smc=%v,offload=%v,queued=%v", c.emc, c.smc, c.hwOffload, c.queued)
}

// oracleConfigs is netdev under all 16 EMC x SMC x offload x queued-or-inline
// combinations, then netlink and ebpf.
func oracleConfigs() []oracleConfig {
	var out []oracleConfig
	for i := 0; i < 16; i++ {
		out = append(out, oracleConfig{typ: "netdev", emc: i&1 != 0, smc: i&2 != 0, hwOffload: i&4 != 0, queued: i&8 != 0})
	}
	return append(out, oracleConfig{typ: "netlink"}, oracleConfig{typ: "ebpf"})
}

// refFlow is one megaflow of the reference: a masked key, its mask, its
// actions, and for a negative flow the instant it expires.
type refFlow struct {
	key     flow.Key
	mask    flow.Mask
	actions []ofproto.DPAction
	expires sim.Time
}

type delivery struct {
	port uint32
	data string
}

// refVerdict is what happened to one packet.
type refVerdict struct {
	out                             []delivery
	misses, lost, malformed, copies int
}

// refDatapath is the reference.
type refDatapath struct {
	eng       *sim.Engine
	pl        *ofproto.Pipeline
	ct        *conntrack.Table
	enc       *tunnel.Encapper
	exact     bool // ebpf: every megaflow narrowed to exact match
	translate func(flow.Key) (ofproto.Megaflow, error)
	ports     map[uint32]bool
	flows     []*refFlow
	v         refVerdict
}

func (r *refDatapath) lookup(key flow.Key) *refFlow {
	for _, f := range r.flows {
		if key.Apply(f.mask) == f.key {
			return f
		}
	}
	return nil
}

func (r *refDatapath) install(key flow.Key, mask flow.Mask, actions []ofproto.DPAction) *refFlow {
	if r.exact {
		mask = flow.MaskAll()
	}
	key = key.Apply(mask)
	for _, f := range r.flows {
		if f.key == key && f.mask == mask {
			f.actions = actions
			return f
		}
	}
	f := &refFlow{key: key, mask: mask, actions: actions}
	r.flows = append(r.flows, f)
	return f
}

func (r *refDatapath) remove(f *refFlow) bool {
	for i, g := range r.flows {
		if g == f {
			r.flows = append(r.flows[:i], r.flows[i+1:]...)
			return true
		}
	}
	return false
}

// expire drops the negative flows whose time has come.
func (r *refDatapath) expire() {
	for i := 0; i < len(r.flows); i++ {
		if f := r.flows[i]; f.expires != 0 && f.expires <= r.eng.Now() {
			r.remove(f)
			i--
		}
	}
}

// revalidate is the reference's pass after a rule change: each flow's masked
// key is translated again; a translation whose mask lies within the flow's
// gives the flow its actions, and any other flow is removed.
func (r *refDatapath) revalidate() {
	var kept []*refFlow
	for _, f := range r.flows {
		mf, err := r.translate(f.key)
		if err == nil && mf.Mask.Union(f.mask) == f.mask {
			f.actions = mf.Actions
			kept = append(kept, f)
		}
	}
	r.flows = kept
}

// oracleRule names a rule a trace added to table 0 of both pipelines.
type oracleRule struct {
	match    ofproto.Match
	priority int
}

// oracleRuleChange applies the rule change arg picks to both pipelines and
// describes it; added holds the rules earlier changes added. The change is
// (a) a rule at priority 60-63 on an in-port/protocol class, whose mask
// every table-0 megaflow already reads, so its megaflows take the new
// actions in place; (b) a rule on tp_src, which no megaflow reads, so the
// megaflows that probe it are deleted (the ebpf flavor's exact ones stay);
// or (c) the deletion of a rule added earlier. Every priority is under the
// failing class's 100 and no action is a ct() into a new table, so the
// pipelines keep handing out the same recirculation ids.
func oracleRuleChange(pls [2]*ofproto.Pipeline, arg int, added *[]oracleRule) string {
	protos := [3]hdr.IPProto{hdr.IPProtoUDP, hdr.IPProtoTCP, hdr.IPProtoICMP}
	proto, inPort, v := protos[arg/3%3], uint32(arg/8%4+1), uint16(arg/32%4)
	actions := [][]ofproto.Action{{ofproto.Output(inPort)}, {ofproto.Drop()},
		{ofproto.PushVLAN(9, 0), ofproto.Output(3)}, {ofproto.Output(1), ofproto.Output(4)}}[arg/9%4]
	var r oracleRule
	switch arg % 3 {
	case 0:
		r = oracleRule{ofproto.NewMatch(flow.Fields{InPort: inPort, EthType: hdr.EtherTypeIPv4, IPProto: proto},
			flow.NewMaskBuilder().InPort().EthType().IPProto().Build()), 60 + int(v)}
	case 1:
		tpSrc := 1000 + v
		if proto != hdr.IPProtoUDP {
			proto, tpSrc = hdr.IPProtoTCP, 3000+v%2
		}
		r = oracleRule{ofproto.NewMatch(flow.Fields{EthType: hdr.EtherTypeIPv4, IPProto: proto, TPSrc: tpSrc},
			flow.NewMaskBuilder().EthType().IPProto().TPSrc().Build()), 70}
	default:
		if len(*added) == 0 {
			return "rule delete with no rule added"
		}
		i := arg / 3 % len(*added)
		r = (*added)[i]
		*added = append((*added)[:i], (*added)[i+1:]...)
		for _, pl := range pls {
			pl.Table(0).Remove(r.match, r.priority)
		}
		return fmt.Sprintf("rule delete %v priority %d", r.match, r.priority)
	}
	*added = append(*added, r)
	for _, pl := range pls {
		pl.AddRule(&ofproto.Rule{Priority: r.priority, Match: r.match, Actions: actions})
	}
	return fmt.Sprintf("rule add %v priority %d actions %v", r.match, r.priority, actions)
}

// execute runs one frame and returns its verdict.
func (r *refDatapath) execute(data []byte, inPort uint32) refVerdict {
	r.v = refVerdict{}
	p := packet.New(bytes.Clone(data))
	p.InPort = inPort
	r.process(p, 0)
	return r.v
}

func (r *refDatapath) process(p *packet.Packet, depth int) {
	if depth > 8 {
		r.v.lost++
		return
	}
	key := flow.Extract(p)
	f := r.lookup(key)
	if f == nil {
		if flow.Malformed(p) {
			r.v.malformed++
			return
		}
		r.v.misses++
		mf, err := r.translate(key)
		if err != nil {
			r.v.lost++
			f := r.install(key, flow.MaskAll(), nil)
			f.expires = r.eng.Now() + costmodel.NegativeFlowTTL
			return
		}
		f = r.install(key, mf.Mask, mf.Actions)
	}
	for i, a := range f.actions {
		switch a.Type {
		case ofproto.DPOutput:
			if !r.ports[a.Port] {
				r.v.lost++
				return
			}
			r.v.out = append(r.v.out, delivery{a.Port, string(p.Data)})
			if i == len(f.actions)-1 {
				return
			}
			r.v.copies++
		case ofproto.DPCT:
			r.ct.Process(p, a.Zone, a.Commit, a.NAT)
			p.RecircID = a.RecircID
			r.process(p, depth+1)
			return
		case ofproto.DPTunnelPush:
			if r.enc != nil {
				outer, err := r.enc.Encap(p, a.Tunnel)
				if err != nil {
					r.v.lost++
					return
				}
				p = outer
			}
		case ofproto.DPTunnelPop:
			inner, wasTunnel, err := tunnel.Decap(p)
			if err != nil || !wasTunnel {
				r.v.lost++
				return
			}
			inner.InPort = a.Port
			r.process(inner, depth+1)
			return
		case ofproto.DPMeter:
			if !r.pl.MeterAllow(a.MeterID, len(p.Data), r.eng.Now()) {
				r.v.lost++
				return
			}
		default:
			a.Rewrite(p)
		}
	}
	r.v.lost++ // the actions ran out
}

// oracleRun drives one trace through one configuration and through the
// reference side by side, draining the engine after every op and failing on
// the first difference or the first snapshot that fails Stats.Invariants.
// The trace's first byte picks whether the pass has an Encapper (bit 0) and
// whether the kernel providers queue their upcalls (bit 1); the rest is
// (opcode, argument) pairs.
func oracleRun(t *testing.T, c oracleConfig, trace []byte) {
	t.Helper()
	if len(trace) == 0 {
		return
	}
	head, ops := trace[0], trace[1:]
	queued := c.queued
	if c.typ != "netdev" {
		queued = head&2 != 0
	}
	eng := sim.NewEngine(1)
	var failing bool
	upcall := func(pl *ofproto.Pipeline) func(flow.Key) (ofproto.Megaflow, error) {
		return func(key flow.Key) (ofproto.Megaflow, error) {
			if f := key.Unpack(); failing && f.RecircID == 0 && f.IPProto == hdr.IPProtoUDP && f.TPDst == oracleFailPort {
				return ofproto.Megaflow{}, fmt.Errorf("upcall refused")
			}
			return pl.Translate(key)
		}
	}

	other := map[string]string{"emc-enable": strconv.FormatBool(c.emc), "smc-enable": strconv.FormatBool(c.smc),
		"hw-offload": strconv.FormatBool(c.hwOffload), "hw-offload-elephant-pps": "1"}
	if queued {
		other["upcall-queue-cap"] = "8"
	}
	d, err := dpif.Open(c.typ, dpif.Config{Eng: eng, Pipeline: oraclePipeline(), Other: other})
	if err != nil {
		t.Fatalf("%v: Open: %v", c, err)
	}
	pass := passOf(d)
	d.SetUpcall(upcall(pass.Pipeline))
	pass.Ct.Timeouts = oracleCtTimeouts

	ref := &refDatapath{eng: eng, pl: oraclePipeline(), ct: conntrack.NewTable(eng),
		exact: c.typ == "ebpf", ports: map[uint32]bool{}}
	ref.ct.Timeouts = oracleCtTimeouts
	ref.translate = upcall(ref.pl)
	if head&1 != 0 {
		pass.Encapper, ref.enc = oracleEncapper(), oracleEncapper()
	}

	// Delivered packets are held until the op is over, so an action that
	// reaches a frame after handing it to a port shows in its bytes.
	type held struct {
		port uint32
		p    *packet.Packet
	}
	var sent []held
	port := func(id uint32) dpif.TxPort {
		return dpif.TxPort{PortID: id, PortName: fmt.Sprint("p", id), Deliver: func(p *packet.Packet) {
			sent = append(sent, held{id, p})
		}}
	}
	for id := uint32(1); id <= 4; id++ {
		if err := d.PortAdd(port(id)); err != nil {
			t.Fatal(err)
		}
		ref.ports[id] = true
	}

	pool := packet.NewPool(16, 256, true)
	var admitted, delivered, copies uint64
	configKeys := []string{"emc-enable", "smc-enable", "hw-offload"}
	var added []oracleRule
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], int(ops[i+1])
		class, v, inPort := arg%8, arg/32%4, uint32(arg/8%4+1)
		what, packets := "", 0
		switch op % 16 {
		default:
			what, packets = fmt.Sprintf("packet class %d variant %d on port %d", class, v, inPort), 1
		case 6:
			what = oracleRuleChange([2]*ofproto.Pipeline{pass.Pipeline, ref.pl}, arg, &added)
			translate := upcall(pass.Pipeline)
			dpif.Revalidate(d, translate)
			ref.revalidate()
			// Every live megaflow is what its masked key translates to now,
			// under a mask within its own, so overlapping megaflows agree.
			for _, f := range d.FlowDump() {
				key, mask := f.Table.MaskedKey(f.Ref), f.Table.Mask(f.Ref)
				mf, err := translate(key)
				if got := f.Table.Actions(f.Entry()); err != nil || mf.Mask.Union(mask) != mask ||
					len(got)+len(mf.Actions) > 0 && !reflect.DeepEqual(got, mf.Actions) {
					t.Fatalf("%v: op %d %s: %s left stale: translates to %v, %v", c, i/2, what, f.Table.String(f.Ref), mf, err)
				}
			}
		case 7: // a burst of one key: enough hits for it to turn elephant and offload
			what, packets = fmt.Sprintf("burst of class %d variant %d on port %d", class, v, inPort), 6
		case 8:
			id := uint32(arg%4 + 1)
			what = fmt.Sprint("PortAdd ", id)
			if err := d.PortAdd(port(id)); err != nil {
				t.Fatalf("%v: op %d %s: %v", c, i/2, what, err)
			}
			ref.ports[id] = true
		case 9:
			id := uint32(arg%4 + 1)
			what = fmt.Sprint("PortDel ", id)
			if gotErr, wantErr := d.PortDel(id) != nil, !ref.ports[id]; gotErr != wantErr {
				t.Fatalf("%v: op %d %s: error %v, reference %v", c, i/2, what, gotErr, wantErr)
			}
			delete(ref.ports, id)
		case 10:
			// The failing class is left to upcalls: a put megaflow could
			// cover one of its negative flows.
			what = fmt.Sprintf("FlowPut class %d variant %d on port %d", class, v, inPort)
			if class == 1 {
				break
			}
			p := packet.New(oracleFrame(class, v))
			p.InPort = inPort
			// Each side installs its own pipeline's translation, so each
			// pipeline has handed out the recirculation ids it carries.
			key := flow.Extract(p)
			mf, err := pass.Pipeline.Translate(key)
			refMf, refErr := ref.pl.Translate(key)
			if err != nil || refErr != nil {
				t.Fatalf("%v: op %d %s: %v, %v", c, i/2, what, err, refErr)
			}
			d.FlowPut(key, mf.Mask, mf.Actions)
			ref.install(key, refMf.Mask, refMf.Actions)
		case 11:
			flows := d.FlowDump()
			what = fmt.Sprintf("FlowDel %d of %d", arg, len(flows))
			if len(flows) == 0 {
				break
			}
			h := flows[arg%len(flows)]
			var f *refFlow
			for _, g := range ref.flows {
				if g.key == h.Table.MaskedKey(h.Ref) && g.mask == h.Table.Mask(h.Ref) {
					f = g
				}
			}
			if f == nil {
				t.Fatalf("%v: op %d %s: the reference has no flow %s", c, i/2, what, h.Table.String(h.Ref))
			}
			if !d.FlowDel(flows[arg%len(flows)]) || !ref.remove(f) {
				t.Fatalf("%v: op %d %s: not removed", c, i/2, what)
			}
		case 12:
			what = "FlowFlush"
			d.FlowFlush()
			ref.flows = nil
		case 13:
			kv := map[string]string{configKeys[arg%3]: fmt.Sprint(arg/3%2 == 0)}
			what = fmt.Sprint("SetConfig ", kv)
			if err := d.SetConfig(kv); err != nil {
				t.Fatalf("%v: op %d %s: %v", c, i/2, what, err)
			}
		case 14:
			what = "upcalls of the failing class refused from now on"
			failing = true
		case 15:
			step := oracleNear
			if arg%2 == 1 {
				step = oracleFar
			}
			what = fmt.Sprint("time advanced ", step)
			eng.RunUntil(eng.Now() + step)
		}
		for k := 0; k < max(packets, 1); k++ {
			before := d.Stats()
			ref.expire()
			var want *refVerdict
			if k < packets {
				frame := oracleFrame(class, v)
				verdict := ref.execute(frame, inPort)
				want = &verdict
				p := pool.GetCopy(frame)
				p.InPort = inPort
				admitted++
				d.Execute(p)
			}
			eng.RunUntil(eng.Now() + oracleStep)
			ref.expire()
			after := d.Stats()

			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("%v: op %d (%s): %s", c, i/2, what, fmt.Sprintf(format, args...))
			}
			var got []delivery
			for j, h := range sent {
				got = append(got, delivery{h.port, string(h.p.Data)})
				for _, k := range sent[:j] {
					if k.p == h.p {
						fail("ports %d and %d got the same *Packet", k.port, h.port)
					}
				}
			}
			for _, h := range sent {
				h.p.Release()
			}
			sent = sent[:0]
			if want == nil && len(got) > 0 {
				fail("delivered %s outside a packet op", fmtDeliveries(got))
			}
			if want != nil {
				if !equalDeliveries(got, want.out) {
					fail("delivered %s, reference %s", fmtDeliveries(got), fmtDeliveries(want.out))
				}
				gotCounts := [4]uint64{after.Missed - before.Missed, after.Lost - before.Lost,
					after.MalformedDrops - before.MalformedDrops, after.UpcallQueueDrops - before.UpcallQueueDrops}
				wantCounts := [4]uint64{uint64(want.misses), uint64(want.lost), uint64(want.malformed), 0}
				if gotCounts != wantCounts {
					fail("missed/lost/malformed/queue-dropped %v, reference %v", gotCounts, wantCounts)
				}
				delivered += uint64(len(got))
				copies += uint64(want.copies)
			}
			if n := pool.Available(); n != 16 {
				fail("harness pool at %d/16", n)
			}
			if after.Flows != len(ref.flows) {
				fail("%d flows installed, reference %d", after.Flows, len(ref.flows))
			}
			if delivered-copies+after.Lost+after.MalformedDrops+after.UpcallQueueDrops != admitted {
				fail("ledger: delivered %d - copies %d + lost %d + malformed %d + queue-dropped %d != admitted %d",
					delivered, copies, after.Lost, after.MalformedDrops, after.UpcallQueueDrops, admitted)
			}
			if err := after.Invariants(); err != nil {
				fail("invariants: %v", err)
			}
			// Each resolution is tallied once, by the thread that made it;
			// the datapath-wide counters are those tallies summed.
			var sum dpif.Stats
			for _, th := range d.PerfStats() {
				sum.Hits += th.EMCHits + th.SMCHits + th.MegaflowHits
				sum.SMCHits += th.SMCHits
				sum.OffloadHits += th.OffloadHits
				sum.UpcallQueueDrops += th.UpcallQueueDrops
			}
			tally := [4]uint64{after.Hits, after.SMCHits, after.OffloadHits, after.UpcallQueueDrops}
			if perThread := [4]uint64{sum.Hits, sum.SMCHits, sum.OffloadHits, sum.UpcallQueueDrops}; tally != perThread {
				fail("hits/smc/offload/queue-dropped %v, per-thread sums %v", tally, perThread)
			}
		}
	}
}

func equalDeliveries(a, b []delivery) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func fmtDeliveries(ds []delivery) string {
	if len(ds) == 0 {
		return "nothing"
	}
	s := ""
	for _, d := range ds {
		s += fmt.Sprintf("[port %d: %d bytes %x] ", d.port, len(d.data), d.data)
	}
	return s
}

// oracleTraces is how many seeded traces TestDatapathMatchesReference runs
// through every configuration, and oracleTraceOps how many ops each holds.
const (
	oracleTraces   = 200
	oracleTraceOps = 48
)

// oracleTrace is seed's trace.
func oracleTrace(seed int64) []byte {
	b := make([]byte, 1+2*oracleTraceOps)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestDatapathMatchesReference runs oracleTraces seeded traces through all
// 18 configurations against the reference.
func TestDatapathMatchesReference(t *testing.T) {
	if costmodel.NegativeFlowTTL%oracleStep != oracleStep/2 {
		t.Fatalf("negative flows expire on the trace's grid: TTL %v, step %v", costmodel.NegativeFlowTTL, oracleStep)
	}
	configs := oracleConfigs()
	if len(configs) != 18 {
		t.Fatalf("%d configurations, want 18", len(configs))
	}
	for seed := int64(0); seed < oracleTraces; seed++ {
		trace := oracleTrace(seed)
		for _, c := range configs {
			t.Run("", func(t *testing.T) {
				defer func() {
					if t.Failed() {
						t.Logf("seed %d trace %x", seed, trace)
					}
				}()
				oracleRun(t, c, trace)
			})
			if t.Failed() {
				return
			}
		}
	}
}

// FuzzDatapathOps: the first byte picks the configuration, the rest is a
// trace (see oracleRun).
func FuzzDatapathOps(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(append([]byte{byte(seed * 5)}, oracleTrace(seed)...))
	}
	configs := oracleConfigs()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 1+1+2*256 {
			return
		}
		oracleRun(t, configs[int(data[0])%len(configs)], data[1:])
	})
}
