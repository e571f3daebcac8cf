package dpif_test

import (
	"reflect"
	"testing"

	"ovsxdp/internal/core"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/fastpath"
	"ovsxdp/internal/faultinject"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/netlinksim"
	"ovsxdp/internal/nicsim"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/perf"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/tunnel"
	"ovsxdp/internal/vdev"
)

// observation is everything a dpif consumer can see from one scenario run.
// The conformance suite runs the identical scenario against every
// registered provider and requires the observations to be deeply equal —
// the guarantee that lets vswitchd, the revalidator, and ovsctl treat the
// three datapaths interchangeably.
type observation struct {
	Type string // filled per-provider, compared against the registry key

	AfterWarm   dpif.Stats // after 8 packets of one flow
	Delivered   uint64
	Upcalls     uint64 // slow-path invocations seen by the upcall hook
	DumpedFlows int

	DelRemoved   bool
	AfterDel     int // flows after deleting the dumped entry
	AfterReExec  dpif.Stats
	AfterFlush   int
	AfterPut     dpif.Stats // FlowPut then one packet: hit without upcall
	PortDelErr   bool       // second PortDel of the same id must fail
	AfterPortDel dpif.Stats // packet executed with output port gone
	FinalPorts   int
}

func scenarioPacket() *packet.Packet {
	frame := hdr.NewBuilder().
		Eth(hdr.MAC{0x02, 0xaa, 0, 0, 0, 1}, hdr.MAC{0x02, 0xbb, 0, 0, 0, 1}).
		IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
		UDPH(1000, 2000).PadTo(64).Build()
	p := packet.New(frame)
	p.InPort = 1
	return p
}

func forwardPipeline() *ofproto.Pipeline {
	pl := ofproto.NewPipeline()
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
		Match: ofproto.NewMatch(flow.Fields{InPort: 1},
			flow.NewMaskBuilder().InPort().Build()),
		Actions: []ofproto.Action{ofproto.Output(2)}})
	return pl
}

// runScenario drives one provider through the shared port/flow/upcall/stats
// scenario. mutate, when non-nil, adjusts the Config before Open — the hook
// the SMC variant uses to reshape the cache hierarchy.
func runScenario(t *testing.T, name string, mutate func(*dpif.Config)) observation {
	t.Helper()
	eng := sim.NewEngine(1)
	pl := forwardPipeline()
	cfg := dpif.Config{Eng: eng, Pipeline: pl}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := dpif.Open(name, cfg)
	if err != nil {
		t.Fatalf("Open(%q): %v", name, err)
	}
	var obs observation
	obs.Type = d.Type()

	// Upcall hook: count slow-path translations, delegating to the pipeline.
	d.SetUpcall(func(key flow.Key) (ofproto.Megaflow, error) {
		obs.Upcalls++
		return pl.Translate(key)
	})

	// Ports: 1 is the ingress identity, 2 counts deliveries.
	if err := d.PortAdd(dpif.TxPort{PortID: 1, PortName: "p0",
		Deliver: func(*packet.Packet) {}}); err != nil {
		t.Fatalf("%s: PortAdd(1): %v", name, err)
	}
	if err := d.PortAdd(dpif.TxPort{PortID: 2, PortName: "p1",
		Deliver: func(*packet.Packet) { obs.Delivered++ }}); err != nil {
		t.Fatalf("%s: PortAdd(2): %v", name, err)
	}
	if n := d.Stats().Ports; n != 2 {
		t.Fatalf("%s: Stats().Ports = %d, want 2", name, n)
	}

	run := func() { eng.RunUntil(eng.Now() + sim.Millisecond) }

	// Phase 1: 8 packets of one flow — first misses, rest hit the cache.
	for i := 0; i < 8; i++ {
		d.Execute(scenarioPacket())
	}
	run()
	obs.AfterWarm = d.Stats()

	// Phase 2: dump, delete the installed flow, re-execute (fresh upcall).
	flows := d.FlowDump()
	obs.DumpedFlows = len(flows)
	if len(flows) > 0 {
		obs.DelRemoved = d.FlowDel(flows[0])
	}
	obs.AfterDel = len(d.FlowDump())
	d.Execute(scenarioPacket())
	run()
	obs.AfterReExec = d.Stats()

	// Phase 3: flush everything, then pre-install via FlowPut — the next
	// packet must hit without consulting the upcall.
	d.FlowFlush()
	obs.AfterFlush = len(d.FlowDump())
	key := flow.Extract(scenarioPacket())
	mf, err := pl.Translate(key)
	if err != nil {
		t.Fatalf("%s: Translate: %v", name, err)
	}
	upcallsBefore := obs.Upcalls
	d.FlowPut(key, mf.Mask, mf.Actions)
	d.Execute(scenarioPacket())
	run()
	if obs.Upcalls != upcallsBefore {
		t.Errorf("%s: packet after FlowPut took an upcall", name)
	}
	obs.AfterPut = d.Stats()

	// Phase 4: drop the output port; traffic for it is lost, and deleting
	// the port twice is an error.
	if err := d.PortDel(2); err != nil {
		t.Fatalf("%s: PortDel(2): %v", name, err)
	}
	obs.PortDelErr = d.PortDel(2) != nil
	d.FlowFlush() // cached actions may hold the dead port's deliver fn
	d.Execute(scenarioPacket())
	run()
	obs.AfterPortDel = d.Stats()
	obs.FinalPorts = d.Stats().Ports
	return obs
}

// TestConformance runs the same scenario against every registered provider
// and requires identical observable behaviour.
func TestConformance(t *testing.T) {
	types := dpif.Types()
	if len(types) != 3 {
		t.Fatalf("registry has %v, want 3 providers", types)
	}
	obs := make(map[string]observation, len(types))
	for _, name := range types {
		o := runScenario(t, name, nil)
		if o.Type != name {
			t.Errorf("Open(%q).Type() = %q", name, o.Type)
		}
		o.Type = "" // normalized away for the cross-provider comparison
		obs[name] = o
	}

	// Spot-check the absolute numbers once (they are provider-independent).
	ref := obs["netdev"]
	if want := (dpif.Stats{Hits: 7, Missed: 1, Lost: 0, Processed: 8, Flows: 1, Ports: 2}); !reflect.DeepEqual(ref.AfterWarm, want) {
		t.Errorf("netdev AfterWarm = %+v, want %+v", ref.AfterWarm, want)
	}
	// 10 = 8 warm + 1 after FlowDel + 1 after FlowPut (the port-del packet
	// is lost, not delivered).
	if ref.Delivered != 10 || !ref.DelRemoved || ref.AfterDel != 0 || ref.AfterFlush != 0 {
		t.Errorf("netdev scenario: delivered=%d delRemoved=%v afterDel=%d afterFlush=%d",
			ref.Delivered, ref.DelRemoved, ref.AfterDel, ref.AfterFlush)
	}
	if ref.AfterPortDel.Lost == 0 {
		t.Errorf("netdev: packet to deleted port not counted as lost: %+v", ref.AfterPortDel)
	}

	for _, name := range types {
		if !reflect.DeepEqual(obs[name], ref) {
			t.Errorf("provider %q diverges from netdev:\n  %q: %+v\n  netdev: %+v",
				name, name, obs[name], ref)
		}
	}
}

// TestConformanceWithSMC reruns the shared scenario with the EMC disabled
// and the signature match cache enabled, so the warm phase's repeat packets
// must resolve through the SMC on netdev. The kernel-path providers ignore
// smc-enable (they have no SMC), so their SMCHits stay zero; the
// cross-provider comparison normalizes the field away and requires every
// other observable — hit totals, upcall counts, flow lifecycles — to remain
// identical. This is the guarantee that enabling the SMC changes where
// packets resolve, never what happens to them.
func TestConformanceWithSMC(t *testing.T) {
	withSMC := func(cfg *dpif.Config) {
		// The EMC off forces repeat traffic onto the SMC level.
		cfg.Other = map[string]string{"emc-enable": "false", "smc-enable": "true"}
	}
	types := dpif.Types()
	obs := make(map[string]observation, len(types))
	for _, name := range types {
		o := runScenario(t, name, withSMC)
		o.Type = ""
		obs[name] = o
	}

	// netdev must have resolved every warm repeat through the SMC: 8
	// packets, 1 upcall, 7 signature-cache hits.
	ref := obs["netdev"]
	if want := (dpif.Stats{Hits: 7, SMCHits: 7, Missed: 1, Processed: 8, Flows: 1, Ports: 2}); !reflect.DeepEqual(ref.AfterWarm, want) {
		t.Errorf("netdev AfterWarm with SMC = %+v, want %+v", ref.AfterWarm, want)
	}
	// FlowDel invalidated the SMC's megaflow index, so the re-executed
	// packet must take a fresh upcall rather than resolve via the stale
	// entry (Missed climbs to 2); the subsequent FlowPut packet hits the
	// classifier directly.
	if ref.AfterReExec.Missed != 2 {
		t.Errorf("netdev AfterReExec.Missed = %d, want 2 (stale SMC index must not serve)", ref.AfterReExec.Missed)
	}

	// Cross-provider: normalize the netdev-only SMC split out of the stats
	// blocks, then require deep equality as in the base conformance run.
	normalize := func(o observation) observation {
		o.AfterWarm.SMCHits = 0
		o.AfterReExec.SMCHits = 0
		o.AfterPut.SMCHits = 0
		o.AfterPortDel.SMCHits = 0
		return o
	}
	nref := normalize(ref)
	for _, name := range types {
		if got := normalize(obs[name]); !reflect.DeepEqual(got, nref) {
			t.Errorf("provider %q diverges from netdev with SMC enabled:\n  %q: %+v\n  netdev: %+v",
				name, name, got, nref)
		}
	}
}

// TestPerfStatsAcrossProviders checks the perf layer surfaces through every
// provider with the same packet accounting: the stage split differs (netdev
// has an EMC, the kernel paths do not), but totals and the upcall count are
// provider-independent.
func TestPerfStatsAcrossProviders(t *testing.T) {
	for _, name := range dpif.Types() {
		eng := sim.NewEngine(1)
		pl := forwardPipeline()
		d, err := dpif.Open(name, dpif.Config{Eng: eng, Pipeline: pl})
		if err != nil {
			t.Fatalf("Open(%q): %v", name, err)
		}
		for _, id := range []uint32{1, 2} {
			if err := d.PortAdd(dpif.TxPort{PortID: id, PortName: "p",
				Deliver: func(*packet.Packet) {}}); err != nil {
				t.Fatalf("%s: PortAdd: %v", name, err)
			}
		}
		d.EnableTrace(4)
		for i := 0; i < 8; i++ {
			d.Execute(scenarioPacket())
		}
		eng.RunUntil(eng.Now() + sim.Millisecond)

		threads := d.PerfStats()
		if len(threads) == 0 {
			t.Fatalf("%s: no perf threads", name)
		}
		var packets, hits, upcalls uint64
		var busy sim.Time
		var recs []perf.TraceRecord
		for _, th := range threads {
			packets += th.Packets
			hits += th.EMCHits + th.SMCHits + th.MegaflowHits
			upcalls += th.Upcalls
			busy += th.BusyCycles()
			recs = append(recs, th.Trace()...)
		}
		if packets != 8 || upcalls != 1 || hits != 7 {
			t.Errorf("%s: packets=%d hits=%d upcalls=%d, want 8/7/1",
				name, packets, hits, upcalls)
		}
		if busy <= 0 {
			t.Errorf("%s: no busy cycles attributed", name)
		}
		if len(recs) != 4 {
			t.Errorf("%s: %d trace records, want ring of 4", name, len(recs))
		}
		for _, r := range recs {
			if r.InPort != 1 || r.OutPort != 2 || r.Result == perf.ResultNone {
				t.Errorf("%s: bad lifecycle %+v", name, r)
			}
		}
	}
}

// faultObservation is everything observable from the shared fault schedule:
// the unified stats block, the test's own delivery accounting, the slow-path
// internals, and the injector's per-fault counters.
type faultObservation struct {
	Stats        dpif.Stats
	Delivered    uint64
	LinkDrops    uint64
	HookUpcalls  uint64 // upcall-hook invocations, failed attempts included
	Retries      uint64
	UpcallErrors uint64

	FlowsAfterFail   int // negative flow(s) present after hard failure
	FlowsAfterExpiry int // and gone after the TTL

	UpcallWindows uint64
	UpcallTrips   uint64

	// Busy fingerprints virtual-time cost attribution across every CPU.
	// Identical between two seeded runs of one provider; cleared for the
	// cross-provider comparison (the providers' costs differ by design).
	Busy sim.Time
}

// malformedPacket is a truncated IPv4 frame: the Ethernet header parses and
// announces IPv4, but only 4 bytes of L3 follow. InPort 7 matches no
// installed flow on any provider (the ebpf flavor's exact-match narrowing
// included), so the packet reaches the slow-path admission check where the
// malformed split happens.
func malformedPacket() *packet.Packet {
	data := make([]byte, hdr.EthernetSize+4)
	data[12], data[13] = 0x08, 0x00 // EtherTypeIPv4
	p := packet.New(data)
	p.InPort = 7
	return p
}

// runFaultScenario drives one provider through the shared fault schedule:
//
//	A: transient slow-path outage + a 12-packet burst of one flow — 4 park
//	   in the bounded queue and recover via backoff retries, 8 overflow;
//	B: link flap on the output port while the flow is hot — delivery fails
//	   at the carrier, the datapath still counts hits;
//	C: malformed frames — counted separately from policy drops;
//	D: hard slow-path outage — retries exhaust, the flow is dropped and a
//	   short-lived negative flow shields the slow path until its TTL.
func runFaultScenario(t *testing.T, name string) faultObservation {
	t.Helper()
	eng := sim.NewEngine(1)
	pl := forwardPipeline()
	d, err := dpif.Open(name, dpif.Config{Eng: eng, Pipeline: pl,
		Other: map[string]string{"upcall-queue-cap": "4"}})
	if err != nil {
		t.Fatalf("Open(%q): %v", name, err)
	}
	var o faultObservation
	inj := faultinject.New(eng)

	failGate := inj.Gate(faultinject.KindUpcallFailure, "upcall")
	d.SetUpcall(func(key flow.Key) (ofproto.Megaflow, error) {
		o.HookUpcalls++
		if failGate() {
			return ofproto.Megaflow{}, inj.Err(faultinject.KindUpcallFailure, "upcall")
		}
		return pl.Translate(key)
	})

	// The output port's carrier: the test's own port drops while it is
	// down, beyond the dpif boundary.
	linkDown := false
	if err := d.PortAdd(dpif.TxPort{PortID: 1, PortName: "p0",
		Deliver: func(*packet.Packet) {}}); err != nil {
		t.Fatalf("%s: PortAdd(1): %v", name, err)
	}
	if err := d.PortAdd(dpif.TxPort{PortID: 2, PortName: "p1",
		Deliver: func(*packet.Packet) {
			if linkDown {
				o.LinkDrops++
			} else {
				o.Delivered++
			}
		}}); err != nil {
		t.Fatalf("%s: PortAdd(2): %v", name, err)
	}

	// Phase A: the slow path is down for the first 100us; a 12-packet burst
	// of one flow arrives at t=0. Queue cap 4: the rest is ENOBUFS.
	inj.Window(faultinject.KindUpcallFailure, "upcall", 0, 100*sim.Microsecond, nil)
	for i := 0; i < 12; i++ {
		d.Execute(scenarioPacket())
	}
	eng.RunUntil(sim.Millisecond) // retries resolve well before this

	// Phase B: link flap on the output port while the flow is installed.
	// The carrier's edges are engine events, so schedule them strictly in
	// the future and advance into the down window before executing.
	t1 := eng.Now()
	eng.ScheduleAt(t1+10*sim.Microsecond, func() { linkDown = true })
	eng.ScheduleAt(t1+40*sim.Microsecond, func() { linkDown = false })
	eng.RunUntil(t1 + 20*sim.Microsecond)
	for i := 0; i < 6; i++ {
		d.Execute(scenarioPacket())
	}
	eng.RunUntil(t1 + 100*sim.Microsecond)

	// Phase C: malformed frames never reach the upcall queue.
	for i := 0; i < 3; i++ {
		d.Execute(malformedPacket())
	}
	eng.RunUntil(t1 + 200*sim.Microsecond)

	// Phase D: flow tables empty, slow path hard-down for 5ms — longer than
	// any backoff chain. 5 packets: 4 admitted (all eventually dropped, one
	// through exhausted retries, the rest against the negative flow), 1
	// refused at the queue.
	d.FlowFlush()
	t2 := eng.Now()
	inj.Window(faultinject.KindUpcallFailure, "upcall", t2+10*sim.Microsecond, 5*sim.Millisecond, nil)
	eng.RunUntil(t2 + 20*sim.Microsecond)
	for i := 0; i < 5; i++ {
		d.Execute(scenarioPacket())
	}
	eng.RunUntil(t2 + 3*sim.Millisecond)
	o.FlowsAfterFail = len(d.FlowDump())
	eng.RunUntil(t2 + 40*sim.Millisecond) // past the negative flow's TTL
	o.FlowsAfterExpiry = len(d.FlowDump())

	o.Stats = d.Stats()
	switch v := d.(type) {
	case *dpif.Netdev:
		o.Retries = v.Datapath().UpcallRetries
		o.UpcallErrors = v.Datapath().UpcallErrors
	case *dpif.Netlink:
		o.Retries = v.Kernel().UpcallRetries
		o.UpcallErrors = v.Kernel().UpcallErrors
	}
	o.UpcallWindows = inj.Windows(faultinject.KindUpcallFailure)
	o.UpcallTrips = inj.Trips(faultinject.KindUpcallFailure)
	for _, c := range eng.CPUs() {
		o.Busy += c.BusyTotal()
	}
	return o
}

// TestFaultScheduleConformance runs the same fault schedule against every
// provider and requires identical counter semantics: the same packets drop
// for the same reasons in the same places, and the drop classes conserve
// against Processed.
func TestFaultScheduleConformance(t *testing.T) {
	types := dpif.Types()
	obs := make(map[string]faultObservation, len(types))
	for _, name := range types {
		obs[name] = runFaultScenario(t, name)
	}

	ref := obs["netdev"]
	// Absolute spot-checks, once (the schedule fixes every number).
	if ref.Stats.Missed != 17 {
		t.Errorf("Missed = %d, want 17 (12 burst + 5 outage)", ref.Stats.Missed)
	}
	if ref.Stats.UpcallQueueDrops != 9 {
		t.Errorf("UpcallQueueDrops = %d, want 9 (8 burst + 1 outage)", ref.Stats.UpcallQueueDrops)
	}
	if ref.Stats.MalformedDrops != 3 {
		t.Errorf("MalformedDrops = %d, want 3", ref.Stats.MalformedDrops)
	}
	if ref.Stats.Lost != 4 {
		t.Errorf("Lost = %d, want 4 (the admitted outage packets)", ref.Stats.Lost)
	}
	if ref.Stats.Processed != 26 {
		t.Errorf("Processed = %d, want 26", ref.Stats.Processed)
	}
	if ref.Delivered != 4 || ref.LinkDrops != 6 {
		t.Errorf("delivered=%d linkDrops=%d, want 4/6", ref.Delivered, ref.LinkDrops)
	}
	if ref.Retries == 0 {
		t.Error("no backoff retries observed")
	}
	if ref.UpcallErrors != 1 {
		t.Errorf("UpcallErrors = %d, want 1 (first exhausted retry installs the negative flow; later packets dedup against it)", ref.UpcallErrors)
	}
	if ref.FlowsAfterFail != 1 {
		t.Errorf("FlowsAfterFail = %d, want exactly the negative flow", ref.FlowsAfterFail)
	}
	if ref.FlowsAfterExpiry != 0 {
		t.Errorf("FlowsAfterExpiry = %d, want 0 (TTL passed)", ref.FlowsAfterExpiry)
	}
	if ref.UpcallWindows != 2 {
		t.Errorf("injector counters: upcallWindows=%d, want 2", ref.UpcallWindows)
	}

	// Conservation: every fast-path pass is delivered or counted in exactly
	// one drop class (link drops happen beyond the dpif boundary, in the
	// test's port, so they are on the delivered side of the datapath).
	for _, name := range types {
		o := obs[name]
		if got := o.Delivered + o.LinkDrops + o.Stats.Lost + o.Stats.UpcallQueueDrops + o.Stats.MalformedDrops; got != o.Stats.Processed {
			t.Errorf("%s: conservation broken: delivered %d + link %d + lost %d + queue %d + malformed %d != processed %d",
				name, o.Delivered, o.LinkDrops, o.Stats.Lost,
				o.Stats.UpcallQueueDrops, o.Stats.MalformedDrops, o.Stats.Processed)
		}
	}

	// Cross-provider: identical counter semantics; only the cost fingerprint
	// may differ.
	ref.Busy = 0
	for _, name := range types {
		o := obs[name]
		o.Busy = 0
		if !reflect.DeepEqual(o, ref) {
			t.Errorf("provider %q diverges from netdev under faults:\n  %q: %+v\n  netdev: %+v",
				name, name, o, ref)
		}
	}
}

// TestFaultScheduleDeterminism runs the full fault schedule twice per
// provider with the same seed and requires byte-identical observations —
// including the virtual-time cost fingerprint, which covers backoff jitter,
// retry ordering, and negative-flow expiry.
func TestFaultScheduleDeterminism(t *testing.T) {
	for _, name := range dpif.Types() {
		a := runFaultScenario(t, name)
		b := runFaultScenario(t, name)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two seeded runs diverge:\n  run1: %+v\n  run2: %+v", name, a, b)
		}
	}
}

// TestConformanceDropsReleasePackets: a datapath that drops a pooled frame
// must hand it back, on every provider and at every drop site a dpif
// consumer can reach — or a drop-heavy run drains the generator's arena and
// silently degrades to heap allocation. Each case executes 40 frames drawn
// from a 64-frame pool; whatever is forwarded is released by the sink, so
// the pool must be back at its start once the engine has drained.
func TestConformanceDropsReleasePackets(t *testing.T) {
	metered := func() *ofproto.Pipeline {
		pl := ofproto.NewPipeline()
		pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
			Match: ofproto.NewMatch(flow.Fields{InPort: 1},
				flow.NewMaskBuilder().InPort().Build()),
			Actions: []ofproto.Action{ofproto.Meter(1), ofproto.Output(2)}})
		pl.SetMeter(1, &ofproto.TokenBucket{RatePerSec: 1, Burst: 1, PerPacket: true})
		return pl
	}
	// The tunnel arms: port 1 into a Geneve tunnel out port 2, or popped to
	// virtual port 100. A provider given an Encapper encapsulates for real,
	// its next hop from a replica cache with or without the neighbour; one
	// without charges the push and forwards the frame as it is.
	vtep, remote := hdr.MakeIP4(172, 16, 0, 1), hdr.MakeIP4(172, 16, 0, 2)
	actions := func(a ...ofproto.Action) func() *ofproto.Pipeline {
		return func() *ofproto.Pipeline {
			pl := ofproto.NewPipeline()
			pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
				Match: ofproto.NewMatch(flow.Fields{InPort: 1},
					flow.NewMaskBuilder().InPort().Build()),
				Actions: a})
			return pl
		}
	}
	push := actions(ofproto.SetTunnel(tunnel.Config{Kind: tunnel.Geneve, LocalIP: vtep, RemoteIP: remote, VNI: 88}), ofproto.Output(2))
	pop := func() *ofproto.Pipeline {
		pl := actions(ofproto.TunnelPop(100))()
		pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
			Match: ofproto.NewMatch(flow.Fields{InPort: 100},
				flow.NewMaskBuilder().InPort().Build()),
			Actions: []ofproto.Action{ofproto.Output(2)}})
		return pl
	}
	encapper := func(routed bool) *tunnel.Encapper {
		kern := netlinksim.NewKernel()
		idx, _ := kern.AddLink("uplink", "mlx5", hdr.MAC{2, 0xff, 0, 0, 0, 1}, 1600)
		kern.AddAddr("uplink", vtep, 16)
		if routed {
			kern.AddNeigh(netlinksim.Neigh{IP: remote, MAC: hdr.MAC{2, 0xff, 0, 0, 0, 2}, LinkIndex: idx})
		}
		return tunnel.NewEncapper(netlinksim.NewCache(kern))
	}
	cases := []struct {
		name     string
		pipeline func() *ofproto.Pipeline
		other    map[string]string
		frame    []byte
		noOutput bool             // leave port 2 unattached
		encapper *tunnel.Encapper // given to the provider's pass
		forwards bool             // nothing is dropped: the frames a forwarding action replaces must come back
		fullRing bool             // a netdev-only arm: port 2 is a vhostuser port whose guest ring is full
		uplink   bool             // on the kernel providers port 2 is a NIC with checksum offload: a pushed frame reaches it partial and leaves settled
	}{
		{name: "empty actions", pipeline: ofproto.NewPipeline},
		{name: "missing output port", pipeline: forwardPipeline, noOutput: true},
		{name: "meter", pipeline: metered},
		{name: "malformed frame", pipeline: forwardPipeline, frame: malformedPacket().Data},
		{name: "upcall queue full", pipeline: forwardPipeline,
			other: map[string]string{"upcall-queue-cap": "1"}},
		{name: "tunnel push: no route", pipeline: push, encapper: encapper(false)},
		{name: "tunnel push: forwarded", pipeline: push, encapper: encapper(true), forwards: true, uplink: true},
		{name: "tunnel push: no encapper", pipeline: push, forwards: true},
		{name: "tunnel pop: not a tunnel frame", pipeline: pop},
		{name: "tunnel pop: forwarded", pipeline: pop, frame: oracleFrame(7, 0), forwards: true},
		{name: "rewrite only", pipeline: actions(ofproto.PushVLAN(7, 0))},
		{name: "guest ring full", pipeline: forwardPipeline, fullRing: true},
	}
	for _, c := range cases {
		for _, name := range dpif.Types() {
			if c.fullRing && name != "netdev" {
				continue
			}
			eng := sim.NewEngine(1)
			d, err := dpif.Open(name, dpif.Config{Eng: eng, Pipeline: c.pipeline(), Other: c.other})
			if err != nil {
				t.Fatalf("%s/%s: Open: %v", c.name, name, err)
			}
			passOf(d).Encapper = c.encapper
			ports := []dpif.Port{dpif.TxPort{PortID: 1, PortName: "p0", Deliver: (*packet.Packet).Release}}
			guest := vdev.NewLink("vhost0")
			settled := 0
			switch {
			case c.uplink && name != "netdev":
				nic := nicsim.New(eng, nicsim.Config{Name: "uplink", Queues: 1, Offloads: nicsim.Offloads{TxCsum: true}})
				nic.ConnectWire(func(p *packet.Packet) {
					if p.Offloads&packet.CsumPartial == 0 {
						settled++
					}
					p.Release()
				})
				ports = append(ports, dpif.TxPort{PortID: 2, PortName: "uplink", Deliver: func(p *packet.Packet) {
					if p.Offloads&packet.CsumPartial == 0 {
						t.Errorf("%s/%s: the pushed frame reached the uplink with its outer checksum settled", c.name, name)
					}
					nic.Transmit(p)
				}})
			case c.fullRing:
				for i := 0; i < vdev.DefaultQueueDepth; i++ {
					guest.ToPeer.Push(packet.New(nil))
				}
				ports = append(ports, core.NewLinkPort(2, "vhostuser", guest, nil))
			case !c.noOutput:
				ports = append(ports, dpif.TxPort{PortID: 2, PortName: "p1", Deliver: (*packet.Packet).Release})
			}
			for _, tp := range ports {
				if err := d.PortAdd(tp); err != nil {
					t.Fatalf("%s/%s: PortAdd(%d): %v", c.name, name, tp.ID(), err)
				}
			}
			frame := c.frame
			if frame == nil {
				frame = scenarioPacket().Data
			}
			pool := packet.NewPool(64, 128, true)
			for i := 0; i < 40; i++ {
				p := pool.GetCopy(frame)
				p.InPort = 1
				d.Execute(p)
			}
			eng.RunUntil(eng.Now() + 20*sim.Millisecond)
			st := d.Stats()
			if dropped := st.Lost+st.UpcallQueueDrops+st.MalformedDrops+guest.ToPeer.Dropped != 0; dropped == c.forwards {
				t.Errorf("%s/%s: dropped = %v: %+v", c.name, name, dropped, st)
			}
			if got := pool.Available(); got != 64 {
				t.Errorf("%s/%s: pool at %d/64 after the drops (stats %+v)", c.name, name, got, st)
			}
			if c.uplink && name != "netdev" && settled != 40 {
				t.Errorf("%s/%s: the NIC settled the outer checksum of %d/40 frames", c.name, name, settled)
			}
		}
	}
}

// passOf returns the state of a provider's fastpath pass.
func passOf(d dpif.Dpif) *fastpath.Datapath {
	if nd, ok := d.(*dpif.Netdev); ok {
		return &nd.Datapath().Datapath
	}
	return &d.(*dpif.Netlink).Kernel().Datapath
}

// TestConformanceOutputBeforeLastSendsCopy: an output that is not the last
// action sends a copy, so what follows it cannot reach what it sent. Under
// output:2, push_vlan(7), output:3, port 2 holds its own untagged 64-byte
// frame once the actions are done and port 3 the tagged 68-byte one, on
// every provider; the copy is drawn from the frame's pool and both come back
// to it.
func TestConformanceOutputBeforeLastSendsCopy(t *testing.T) {
	pl := func() *ofproto.Pipeline {
		pl := ofproto.NewPipeline()
		pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
			Match: ofproto.NewMatch(flow.Fields{InPort: 1},
				flow.NewMaskBuilder().InPort().Build()),
			Actions: []ofproto.Action{ofproto.Output(2), ofproto.PushVLAN(7, 0), ofproto.Output(3)}})
		return pl
	}
	for _, name := range dpif.Types() {
		eng := sim.NewEngine(1)
		d, err := dpif.Open(name, dpif.Config{Eng: eng, Pipeline: pl()})
		if err != nil {
			t.Fatalf("%s: Open: %v", name, err)
		}
		got := map[uint32][]*packet.Packet{}
		for _, id := range []uint32{1, 2, 3} {
			id := id
			if err := d.PortAdd(dpif.TxPort{PortID: id, PortName: "p", Deliver: func(p *packet.Packet) {
				got[id] = append(got[id], p)
			}}); err != nil {
				t.Fatalf("%s: PortAdd(%d): %v", name, id, err)
			}
		}
		pool := packet.NewPool(8, 128, true)
		for i := 0; i < 2; i++ {
			p := pool.GetCopy(scenarioPacket().Data)
			p.InPort = 1
			d.Execute(p)
		}
		eng.RunUntil(eng.Now() + sim.Millisecond)
		lens := map[uint32][]int{}
		for id, ps := range got {
			for _, p := range ps {
				lens[id] = append(lens[id], len(p.Data))
			}
		}
		if !reflect.DeepEqual(lens, map[uint32][]int{2: {64, 64}, 3: {68, 68}}) {
			t.Fatalf("%s: delivered frame lengths %v, want port 2 untagged 64 B and port 3 tagged 68 B", name, lens)
		}
		for i := range got[2] {
			if got[2][i] == got[3][i] {
				t.Errorf("%s: ports 2 and 3 got the same *Packet", name)
			}
		}
		for _, ps := range got {
			for _, p := range ps {
				p.Release()
			}
		}
		if n := pool.Available(); n != 8 {
			t.Errorf("%s: pool at %d/8 after releasing every delivered frame", name, n)
		}
	}
}

// TestRegistry covers the registry itself: unknown types fail, duplicate
// registration panics.
func TestRegistry(t *testing.T) {
	if _, err := dpif.Open("nosuch", dpif.Config{}); err == nil {
		t.Fatal("Open of unregistered type succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	dpif.Register("netdev", nil)
}
