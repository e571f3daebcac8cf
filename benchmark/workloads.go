package main

import (
	"fmt"

	"ovsxdp/internal/conntrack"
	"ovsxdp/internal/core"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/experiments"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/kernelsim"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/perf"
	"ovsxdp/internal/sim"
)

// workload is one row of the fixed test matrix. Every size below is a
// constant chosen once on the seed commit and never tuned at run time, so
// two commits run the same virtual experiment and only the host time it
// takes differs.
type workload struct {
	name string
	why  string
	// nicDriven workloads offer frames to NIC A and collect them behind
	// NIC B; the others call Dpif.Execute from the generator.
	nicDriven bool
	ratePPS   float64
	// warmup is the virtual set-up run (at least a million packets, and
	// long enough for caches, megaflows and connection tables to fill);
	// window is the virtual length of one timed window, sized to take
	// about a third of a wall second on the seed commit.
	warmup, window sim.Time
	// drainStep is how far virtual time is advanced per settle attempt
	// after the generator stops.
	drainStep sim.Time
	// probeWarmup and probeWindow size one capacity-search trial.
	probeWarmup, probeWindow sim.Time
	// pipeline builds the workload's OpenFlow rule set; build wires a bed
	// around a fresh copy of it and attaches the seeded generator.
	pipeline func() *ofproto.Pipeline
	build    func(pl *ofproto.Pipeline, seed uint64, ratePPS float64, tr *tracer) *instance
}

// instantiate builds a fresh bed for w offering ratePPS.
func (w workload) instantiate(seed uint64, ratePPS float64, tr *tracer) *instance {
	return w.build(w.pipeline(), seed, ratePPS, tr)
}

var workloads = []workload{
	{
		name: "p2p_fast",
		why: "AF_XDP P2P, 64 flows at 4 Mpps: the EMC resolves every packet, so sim, nicsim, xdp/ebpf, afxdp " +
			"rings and the PMD loop do the work; dpcls, ofproto and conntrack are bypassed",
		nicDriven: true, ratePPS: 4e6,
		warmup: 260 * sim.Millisecond, window: 165 * sim.Millisecond,
		drainStep:   sim.Millisecond,
		probeWarmup: 2 * sim.Millisecond, probeWindow: 8 * sim.Millisecond,
		pipeline: forwardPipeline,
		build: func(pl *ofproto.Pipeline, seed uint64, rate float64, tr *tracer) *instance {
			return buildP2P(experiments.KindAFXDP, 64, pl, seed, rate, tr)
		},
	},
	{
		name: "p2p_dpcls",
		why: "same bed, 100k flows over 6 subtables at 2 Mpps: the EMC thrashes and dpcls does " +
			"every lookup; a classifier gain shows here, an EMC-hit gain in p2p_fast",
		nicDriven: true, ratePPS: 2e6,
		warmup: 520 * sim.Millisecond, window: 190 * sim.Millisecond,
		drainStep:   sim.Millisecond,
		probeWarmup: 60 * sim.Millisecond, probeWindow: 20 * sim.Millisecond,
		pipeline: sweepPipeline,
		build: func(pl *ofproto.Pipeline, seed uint64, rate float64, tr *tracer) *instance {
			return buildP2P(experiments.KindAFXDP, 100_000, pl, seed, rate, tr)
		},
	},
	{
		name: "churn",
		why: "Execute-driven netdev, 100k-flow window with 400k new flows/s and the wheel revalidator: " +
			"upcall, ofproto translation, dpcls insert and expiry; no NIC, rings or eBPF",
		ratePPS: 4e6,
		warmup:  260 * sim.Millisecond, window: 90 * sim.Millisecond,
		drainStep: churnIdle,
		pipeline:  churnPipeline,
		build:     buildChurn,
	},
	{
		name: "ct",
		why: "Execute-driven stateful firewall: every packet recirculates through ct(commit), 100k " +
			"connections with 100k new per second; conntrack lookup, commit and wheel expiry dominate",
		ratePPS: 4e6,
		warmup:  260 * sim.Millisecond, window: 80 * sim.Millisecond,
		drainStep: ctTimeout,
		pipeline:  ctPipeline,
		build:     buildCT,
	},
	{
		name: "kernel_p2p",
		why: "kernel datapath P2P, 12 RSS queues and NAPI actors, 1000 flows at 2 Mpps: the paper's baseline; " +
			"bypasses afxdp, emc, dpcls and the PMD loop, so a PMD-only gain must not show",
		nicDriven: true, ratePPS: 2e6,
		warmup: 520 * sim.Millisecond, window: 400 * sim.Millisecond,
		drainStep:   sim.Millisecond,
		probeWarmup: 2 * sim.Millisecond, probeWindow: 8 * sim.Millisecond,
		pipeline: forwardPipeline,
		build: func(pl *ofproto.Pipeline, seed uint64, rate float64, tr *tracer) *instance {
			return buildP2P(experiments.KindKernel, 1000, pl, seed, rate, tr)
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is one built bed with its generator attached. bed is set on the
// NIC-driven workloads only.
type instance struct {
	eng *sim.Engine
	dp  dpif.Dpif
	bed *experiments.Bed
	gen generator

	reval *dpif.WheelRevalidator
	ct    *conntrack.Table
	// shed counts packets the ct firewall sent to its reject port.
	shed uint64
}

func (in *instance) sent() uint64 { return in.gen.stats().sent }

// netdev returns the userspace datapath, or nil on the kernel bed.
func (in *instance) netdev() *core.Datapath {
	if nd, ok := in.dp.(*dpif.Netdev); ok {
		return nd.Datapath()
	}
	return nil
}

// afxdpPorts returns the bed's AF_XDP ports (nil for other beds).
func (in *instance) afxdpPorts() []*core.AFXDPPort {
	dp := in.netdev()
	if dp == nil {
		return nil
	}
	var out []*core.AFXDPPort
	for id := uint32(1); id <= 2; id++ {
		if p, ok := dp.Port(id).(*core.AFXDPPort); ok {
			out = append(out, p)
		}
	}
	return out
}

func mustOpen(name string, cfg dpif.Config) dpif.Dpif {
	d, err := dpif.Open(name, cfg)
	if err != nil {
		panic(err) // compile-time provider names and configs only
	}
	return d
}

// buildP2P builds the Figure 9(a) loopback for kind and points a seeded
// generator at it. The bed's engine seed stays fixed: the benchmark seed
// reaches only the generator.
func buildP2P(kind experiments.DPKind, flows int, pl *ofproto.Pipeline, seed uint64, rate float64, tr *tracer) *instance {
	// BedConfig.Flows only sizes the bed's own generator, which this
	// benchmark does not use — except on the kernel bed, where a value
	// above one also lets the SMT-contention probe settle.
	bedFlows := 1
	if kind == experiments.KindKernel {
		bedFlows = flows
	}
	cfg := experiments.DefaultBed(kind, bedFlows)
	cfg.Pipeline = pl
	bed := experiments.NewP2PBed(cfg)
	return &instance{eng: bed.Eng, dp: bed.DP, bed: bed,
		gen: newNICGen(bed.Eng, bed.NICA, bed.NICB, seededFlows(seed, flows), rate, seed, tr)}
}

// forwardPipeline forwards port 1 to port 2: one megaflow whatever the
// traffic, the Figure 9 default.
func forwardPipeline() *ofproto.Pipeline {
	pl := ofproto.NewPipeline()
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
		Match:   ofproto.NewMatch(flow.Fields{InPort: 1}, flow.NewMaskBuilder().InPort().Build()),
		Actions: []ofproto.Action{ofproto.Output(2)}})
	return pl
}

// sweepPipeline rebuilds cachesweep's rule set from public ofproto calls:
// six rule groups at descending priorities partition the 250 destination
// /24s, each group adding one constant-valued field to a shared
// InPort+EthType+IP4Dst/24 base. A packet in group k probes k+1 subtables,
// and its megaflow mask is the union of what it probed: six dpcls subtables,
// 250 megaflows, about 3.5 subtables probed per lookup.
func sweepPipeline() *ofproto.Pipeline {
	base := func() *flow.MaskBuilder {
		return flow.NewMaskBuilder().InPort().EthType().IP4Dst(24)
	}
	groups := []struct {
		mask flow.Mask
		set  func(*flow.Fields)
	}{
		{base().Build(), func(*flow.Fields) {}},
		{base().IPProto().Build(), func(f *flow.Fields) { f.IPProto = hdr.IPProtoUDP }},
		{base().IPTTL().Build(), func(f *flow.Fields) { f.IPTTL = 64 }},
		{base().IPTOS().Build(), func(f *flow.Fields) { f.IPTOS = 0 }},
		{base().EthSrc().Build(), func(f *flow.Fields) { f.EthSrc = genSrcMAC }},
		{base().EthDst().Build(), func(f *flow.Fields) { f.EthDst = genDstMAC }},
	}
	pl := ofproto.NewPipeline()
	const dsts = 250
	per := (dsts + len(groups) - 1) / len(groups)
	for g, grp := range groups {
		for x := g * per; x < (g+1)*per && x < dsts; x++ {
			f := flow.Fields{InPort: 1, EthType: hdr.EtherTypeIPv4,
				IP4Dst: hdr.MakeIP4(10, 1, byte(x), 0)}
			grp.set(&f)
			pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 60 - 10*g,
				Match:   ofproto.NewMatch(f, grp.mask),
				Actions: []ofproto.Action{ofproto.Output(2)}})
		}
	}
	return pl
}

// churnIdle is the revalidator's idle timeout in the churn workload.
const churnIdle = 50 * sim.Millisecond

// churnPipeline makes ofproto translation produce one exact-source megaflow
// per flow, under two masks by flow-id parity. A never-matching top-priority
// rule on the full address pair is probed by every lookup, which pins every
// megaflow to its /32 source; odd ids (destination port 2001) stop at the
// second subtable, even ids fall through to a third that also folds the
// source port into the mask.
func churnPipeline() *ofproto.Pipeline {
	pl := ofproto.NewPipeline()
	pin := flow.NewMaskBuilder().InPort().EthType().IPProto().IP4Src(32).IP4Dst(32).Build()
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 30,
		Match: ofproto.NewMatch(flow.Fields{InPort: 1, EthType: hdr.EtherTypeIPv4,
			IPProto: hdr.IPProtoUDP, IP4Src: hdr.MakeIP4(192, 0, 2, 1), IP4Dst: hdr.MakeIP4(192, 0, 2, 2)}, pin),
		Actions: []ofproto.Action{ofproto.Drop()}})
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 20,
		Match:   ofproto.NewMatch(flow.Fields{InPort: 1, TPDst: 2001}, flow.NewMaskBuilder().InPort().TPDst().Build()),
		Actions: []ofproto.Action{ofproto.Output(2)}})
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 10,
		Match:   ofproto.NewMatch(flow.Fields{InPort: 1, TPSrc: 1000}, flow.NewMaskBuilder().InPort().TPSrc().Build()),
		Actions: []ofproto.Action{ofproto.Output(2)}})
	return pl
}

// executeBed opens an Execute-driven netdev datapath over pl with one
// unstarted thread (the one Execute runs on) and a generator over a window
// of size flow ids advancing at advancePerS, whose sink is output port 2.
func executeBed(pl *ofproto.Pipeline, frame []byte, dports [2]uint16, size int, advancePerS float64,
	seed uint64, rate float64, tr *tracer) *instance {
	eng := sim.NewEngine(1)
	d := mustOpen("netdev", dpif.Config{Eng: eng, Pipeline: pl})
	pmd := d.(*dpif.Netdev).NewPMD(core.ModeNonPMD)
	g := newWindowGen(eng, d, pmd.CPU, frame, dports, size, rate, advancePerS, seed, tr)
	if err := d.PortAdd(dpif.TxPort{PortID: 2, PortName: "sink", Deliver: g.sink}); err != nil {
		panic(err)
	}
	return &instance{eng: eng, dp: d, gen: g}
}

func buildChurn(pl *ofproto.Pipeline, seed uint64, rate float64, tr *tracer) *instance {
	frame := hdr.NewBuilder().Eth(genSrcMAC, genDstMAC).
		IPv4H(hdr.MakeIP4(10, 0, 0, 0), hdr.MakeIP4(10, 255, 0, 1), 64).
		UDPH(1000, 2000).PadTo(frameLen).Build()
	in := executeBed(pl, frame, [2]uint16{2000, 2001}, 100_000, 4e5, seed, rate, tr)
	// Attached before any flow exists, so every install is discovered
	// through the flow hook.
	in.reval = dpif.StartWheelRevalidator(in.eng, in.dp, churnIdle)
	return in
}

const (
	ctZone uint16 = 7
	// ctTimeout comfortably exceeds the 25 ms round-robin gap between
	// touches of one live connection, so only retired connections expire.
	ctTimeout = 60 * sim.Millisecond
)

// ctPipeline is the stateful firewall: table 0 sends everything through
// ct(commit) and recirculates into table 1, which admits established and
// new-to-port-80 traffic to port 2 and sheds the rest on port 3.
func ctPipeline() *ofproto.Pipeline {
	pl := ofproto.NewPipeline()
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 10,
		Match:   ofproto.NewMatch(flow.Fields{InPort: 1}, flow.NewMaskBuilder().InPort().Build()),
		Actions: []ofproto.Action{ofproto.CT(ctZone, true, 1)}})
	state := uint8(packet.CtTracked | packet.CtNew | packet.CtEstablished)
	pl.AddRule(&ofproto.Rule{TableID: 1, Priority: 100,
		Match: ofproto.NewMatch(flow.Fields{CtState: uint8(packet.CtTracked | packet.CtEstablished)},
			flow.NewMaskBuilder().CtState(state).Build()),
		Actions: []ofproto.Action{ofproto.Output(2)}})
	pl.AddRule(&ofproto.Rule{TableID: 1, Priority: 90,
		Match: ofproto.NewMatch(flow.Fields{CtState: uint8(packet.CtTracked | packet.CtNew), TPDst: 80},
			flow.NewMaskBuilder().CtState(state).TPDst().Build()),
		Actions: []ofproto.Action{ofproto.Output(2)}})
	pl.AddRule(&ofproto.Rule{TableID: 1, Priority: 1,
		Match:   ofproto.MatchAny(),
		Actions: []ofproto.Action{ofproto.Output(3)}})
	return pl
}

func buildCT(pl *ofproto.Pipeline, seed uint64, rate float64, tr *tracer) *instance {
	frame := hdr.NewBuilder().Eth(genSrcMAC, genDstMAC).
		IPv4H(hdr.MakeIP4(10, 0, 0, 0), hdr.MakeIP4(10, 255, 0, 1), 64).
		TCPH(1000, 80, 1, 0, hdr.TCPAck).PadTo(frameLen).Build()
	in := executeBed(pl, frame, [2]uint16{80, 80}, 100_000, 1e5, seed, rate, tr)
	if err := in.dp.PortAdd(dpif.TxPort{PortID: 3, PortName: "shed",
		Deliver: func(p *packet.Packet) { in.shed++; p.Release() }}); err != nil {
		panic(err)
	}
	// Connections are picked up mid-stream (one ACK each, the
	// nf_conntrack_tcp_loose behaviour) and reclaimed by the timer wheel.
	in.ct = in.netdev().Ct
	in.ct.Timeouts = conntrack.Timeouts{SynSent: ctTimeout, Established: ctTimeout,
		UDP: ctTimeout, Fin: ctTimeout}
	in.ct.EnableWheelExpiry(true)
	return in
}

// threadStats pairs one packet-processing thread's counter block with the
// virtual CPUs it charges, for the TotalCycles == BusyTotal invariant.
type threadStats struct {
	name  string
	stats *perf.Stats
	cpus  []*sim.CPU
}

// threads lists the instance's packet-processing threads: one per PMD on the
// userspace datapath; on the kernel bed the single softirq counter block,
// which all twelve NAPI CPUs charge.
func (in *instance) threads() []threadStats {
	if dp := in.netdev(); dp != nil {
		var out []threadStats
		for _, m := range dp.PMDs() {
			out = append(out, threadStats{m.CPU.Name(), m.Perf, []*sim.CPU{m.CPU}})
		}
		return out
	}
	ts := in.dp.PerfStats()[0]
	t := threadStats{name: ts.Name, stats: ts.Stats}
	for _, a := range in.bed.Actors {
		t.cpus = append(t.cpus, a.CPU)
	}
	return []threadStats{t}
}

// checkThreads asserts, per thread, that every virtual cycle charged to its
// CPUs was attributed to a perf stage.
func (in *instance) checkThreads() error {
	for _, t := range in.threads() {
		var busy sim.Time
		for _, c := range t.cpus {
			busy += c.BusyTotal()
		}
		if total := t.stats.TotalCycles(); total != busy {
			return fmt.Errorf("thread %s: perf TotalCycles %d != CPU BusyTotal %d", t.name, total, busy)
		}
	}
	return nil
}

// napiActors returns the kernel bed's NAPI actors (nil elsewhere).
func (in *instance) napiActors() []*kernelsim.NAPIActor {
	if in.bed == nil {
		return nil
	}
	return in.bed.Actors
}
