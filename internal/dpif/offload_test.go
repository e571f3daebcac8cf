package dpif_test

// Tests for the hardware flow-offload surface: the offload engine must
// keep every provider's observable flow lifecycle identical (the keys are
// inert on the kernel paths), the FlowDel invalidation pass must purge the
// NIC table together with the EMC and SMC, and the counter readback must
// keep hardware-hot flows out of the revalidator's idle eviction.

import (
	"reflect"
	"testing"

	"ovsxdp/internal/dpif"
	"ovsxdp/internal/faultinject"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/sim"
)

// offloadConfig is the aggressive test tuning: any flow with one hit per
// 100us readback interval classes as an elephant, so a handful of packets
// offloads a flow.
var offloadTestConfig = map[string]string{
	"hw-offload":              "true",
	"hw-offload-table-size":   "8",
	"hw-offload-elephant-pps": "1",
	"hw-offload-readback-us":  "100",
}

// openOffload builds a provider with one ingress and one counting sink and
// the offload keys applied.
func openOffload(t *testing.T, name string, mutate func(*dpif.Config)) (*sim.Engine, dpif.Dpif, *uint64) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := dpif.Config{Eng: eng, Pipeline: forwardPipeline()}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := dpif.Open(name, cfg)
	if err != nil {
		t.Fatalf("Open(%q): %v", name, err)
	}
	if err := d.SetConfig(offloadTestConfig); err != nil {
		t.Fatalf("%s: SetConfig: %v", name, err)
	}
	delivered := new(uint64)
	if err := d.PortAdd(dpif.TxPort{PortID: 1, PortName: "p0",
		Deliver: func(*packet.Packet) {}}); err != nil {
		t.Fatal(err)
	}
	if err := d.PortAdd(dpif.TxPort{PortID: 2, PortName: "p1",
		Deliver: func(*packet.Packet) { *delivered++ }}); err != nil {
		t.Fatal(err)
	}
	return eng, d, delivered
}

// offloadObservation is what a consumer sees from the shared offload
// scenario; the Offload* stats are normalized away for the cross-provider
// comparison (only netdev has a NIC flow table).
type offloadObservation struct {
	WarmMissed   uint64
	WarmFlows    int
	Delivered    uint64
	DelRemoved   bool
	AfterDel     uint64 // Missed after the re-execute: must take a fresh upcall
	FinalFlows   int
	FinalMissed  uint64
	FlushedLive  int    // offload Live after FlowFlush (always 0)
	HWHits       uint64 // zeroed before the cross-provider comparison
	FinalLostAny bool
}

// runOffloadScenario drives one provider: warm a flow across several
// readback intervals (offloading it on netdev), delete it mid-traffic,
// and require the post-delete packet to take a fresh upcall — stale
// hardware rules, EMC entries, and SMC signatures must all be gone in the
// same invalidation pass.
func runOffloadScenario(t *testing.T, name string, mutate func(*dpif.Config)) offloadObservation {
	t.Helper()
	eng, d, delivered := openOffload(t, name, mutate)
	var obs offloadObservation

	// Warm: packets spread over 5 readback intervals; on netdev the flow
	// is marked after the first tick and offloaded on the next software
	// hit.
	for i := 0; i < 10; i++ {
		d.Execute(scenarioPacket())
		eng.RunUntil(eng.Now() + 50*sim.Microsecond)
	}
	st := d.Stats()
	obs.WarmMissed = st.Missed
	obs.WarmFlows = st.Flows
	obs.HWHits = st.OffloadHits

	// Delete the megaflow while its hardware rule is hot.
	flows := d.FlowDump()
	if len(flows) != 1 {
		t.Fatalf("%s: dumped %d flows, want 1", name, len(flows))
	}
	obs.DelRemoved = d.FlowDel(flows[0])
	if live := d.Stats().OffloadLive; live != 0 {
		t.Errorf("%s: %d hardware rules survived FlowDel", name, live)
	}

	// The next packet must re-upcall: no cache level — hardware, EMC, or
	// SMC — may still serve the deleted flow.
	d.Execute(scenarioPacket())
	obs.AfterDel = d.Stats().Missed

	// Re-warm and flush everything: the hardware table must empty too.
	for i := 0; i < 6; i++ {
		d.Execute(scenarioPacket())
		eng.RunUntil(eng.Now() + 50*sim.Microsecond)
	}
	d.FlowFlush()
	obs.FlushedLive = d.Stats().OffloadLive
	d.Execute(scenarioPacket())

	final := d.Stats()
	obs.FinalFlows = final.Flows
	obs.FinalMissed = final.Missed
	obs.FinalLostAny = final.Lost > 0
	obs.Delivered = *delivered
	return obs
}

// TestOffloadConformanceAcrossProviders applies the hw-offload keys to all
// three providers and requires the identical observable flow lifecycle:
// on netdev packets short-circuit through the NIC table, on the kernel
// paths the keys are inert, but deliveries, upcall counts, and the
// FlowDel/FlowFlush semantics must not differ.
func TestOffloadConformanceAcrossProviders(t *testing.T) {
	types := dpif.Types()
	obs := make(map[string]offloadObservation, len(types))
	for _, name := range types {
		obs[name] = runOffloadScenario(t, name, nil)
	}
	ref := obs["netdev"]
	if ref.WarmMissed != 1 || ref.AfterDel != 2 || ref.FinalMissed != 3 {
		t.Errorf("netdev upcall ladder = %d/%d/%d, want 1/2/3 (delete and flush must each force a fresh upcall)",
			ref.WarmMissed, ref.AfterDel, ref.FinalMissed)
	}
	if ref.Delivered != 18 || ref.FinalLostAny {
		t.Errorf("netdev delivered %d (lost=%v), want all 18 packets delivered",
			ref.Delivered, ref.FinalLostAny)
	}
	// The scenario must genuinely exercise the NIC table on netdev and stay
	// inert on the kernel paths; only then is the DeepEqual meaningful.
	if ref.HWHits == 0 {
		t.Error("netdev forwarded nothing in hardware: the scenario never offloaded")
	}
	for _, name := range types {
		if name != "netdev" && obs[name].HWHits != 0 {
			t.Errorf("provider %q reported %d hardware hits; hw-offload keys must be inert", name, obs[name].HWHits)
		}
	}
	normalize := func(o offloadObservation) offloadObservation { o.HWHits = 0; return o }
	for _, name := range types {
		if !reflect.DeepEqual(normalize(obs[name]), normalize(ref)) {
			t.Errorf("provider %q diverges from netdev under hw-offload:\n  %q: %+v\n  netdev: %+v",
				name, name, obs[name], ref)
		}
	}
}

// TestOffloadConformanceWithSMC reruns the shared offload scenario with
// the EMC off and the SMC on: the FlowDel pass must purge the NIC rule,
// the SMC signature, and (trivially) the EMC together.
func TestOffloadConformanceWithSMC(t *testing.T) {
	withSMC := func(cfg *dpif.Config) {
		cfg.Other = map[string]string{"emc-enable": "false", "smc-enable": "true"}
	}
	types := dpif.Types()
	obs := make(map[string]offloadObservation, len(types))
	for _, name := range types {
		obs[name] = runOffloadScenario(t, name, withSMC)
	}
	ref := obs["netdev"]
	if ref.AfterDel != 2 {
		t.Errorf("netdev Missed after FlowDel = %d, want 2 (stale SMC or hardware rule served the deleted flow)", ref.AfterDel)
	}
	if ref.HWHits == 0 {
		t.Error("netdev forwarded nothing in hardware under SMC config")
	}
	normalize := func(o offloadObservation) offloadObservation { o.HWHits = 0; return o }
	for _, name := range types {
		if !reflect.DeepEqual(normalize(obs[name]), normalize(ref)) {
			t.Errorf("provider %q diverges from netdev under hw-offload+SMC:\n  %q: %+v\n  netdev: %+v",
				name, name, obs[name], ref)
		}
	}
}

// TestOffloadShortCircuitsSoftwarePath checks the netdev fast path: once a
// flow is offloaded, further packets are hardware hits — near-zero PMD
// cost, no software-cache traffic — and the stats ledger stays exact.
func TestOffloadShortCircuitsSoftwarePath(t *testing.T) {
	eng, d, delivered := openOffload(t, "netdev", nil)

	// Warm: the upcall installs the megaflow (its triggering packet doesn't
	// count as a cache hit), a second packet gives the readback a nonzero
	// hit delta, the tick marks the flow, and the next software hit
	// installs the hardware rule.
	d.Execute(scenarioPacket())
	d.Execute(scenarioPacket())
	eng.RunUntil(150 * sim.Microsecond)
	d.Execute(scenarioPacket())
	if live := d.Stats().OffloadLive; live != 1 {
		t.Fatalf("hardware rules live = %d, want 1", live)
	}

	nd := d.(*dpif.Netdev)
	pmd := nd.Datapath().PMDs()[0]
	busyBefore := pmd.CPU.BusyTotal()
	hitsBefore := d.Stats().Hits
	for i := 0; i < 100; i++ {
		d.Execute(scenarioPacket())
	}
	st := d.Stats()
	if st.OffloadHits != 100 {
		t.Fatalf("hardware hits = %d, want 100", st.OffloadHits)
	}
	if st.Hits != hitsBefore {
		t.Errorf("software caches saw %d hits during hardware forwarding", st.Hits-hitsBefore)
	}
	// 100 packets at the near-zero offload cost: orders of magnitude under
	// the ~100ns software path.
	if perPkt := (pmd.CPU.BusyTotal() - busyBefore) / 100; perPkt > 5 {
		t.Errorf("offloaded packet costs %dns on the PMD, want <= 5", perPkt)
	}
	if *delivered != 103 {
		t.Errorf("delivered = %d, want 103", *delivered)
	}
	if err := st.Invariants(); err != nil {
		t.Error(err)
	}
}

// TestOffloadedHotPathZeroAlloc is the allocation gate on the hardware
// fast path: once a flow is resident in the NIC table, forwarding a packet
// (extract, exact-match lookup, liveness check, rewrite, transmit) must
// not touch the heap.
func TestOffloadedHotPathZeroAlloc(t *testing.T) {
	eng, d, _ := openOffload(t, "netdev", nil)
	d.Execute(scenarioPacket())
	d.Execute(scenarioPacket())
	eng.RunUntil(150 * sim.Microsecond)
	d.Execute(scenarioPacket())
	if d.Stats().OffloadLive != 1 {
		t.Fatal("flow not offloaded")
	}

	p := scenarioPacket()
	avg := testing.AllocsPerRun(1000, func() { d.Execute(p) })
	if avg != 0 {
		t.Fatalf("offloaded hot path allocates: %.2f allocs/packet (want 0)", avg)
	}
	if st := d.Stats(); st.OffloadHits < 1000 {
		t.Fatalf("only %d hardware hits during the measured loop; the gate measured the wrong path", st.OffloadHits)
	}
}

// TestOffloadReadbackKeepsFlowsAlive is the revalidator-aliveness gate: a
// flow whose traffic moves entirely into hardware must keep looking alive
// (the readback merges hardware hits into its megaflow stats), while a
// genuinely idle flow still expires on time.
func TestOffloadReadbackKeepsFlowsAlive(t *testing.T) {
	eng, d, _ := openOffload(t, "netdev", nil)
	const idle = 2 * sim.Millisecond
	r := dpif.StartWheelRevalidator(eng, d, idle)

	// Offload the flow: upcall, one counted hit, tick, installing hit.
	d.Execute(scenarioPacket())
	d.Execute(scenarioPacket())
	eng.RunUntil(150 * sim.Microsecond)
	d.Execute(scenarioPacket())
	if d.Stats().OffloadLive != 1 {
		t.Fatal("flow not offloaded")
	}

	// Hardware-only traffic for 5 idle timeouts: the megaflow must survive
	// every revalidator deadline purely on merged hardware hits.
	stop := eng.Now() + 5*idle
	var pump func()
	pump = func() {
		if eng.Now() >= stop {
			return
		}
		d.Execute(scenarioPacket())
		eng.Schedule(100*sim.Microsecond, pump)
	}
	pump()
	eng.RunUntil(stop)
	if evicted := r.Evicted; evicted != 0 {
		t.Fatalf("revalidator evicted %d flows while hardware-hot", evicted)
	}
	st := d.Stats()
	if st.Flows != 1 || st.Missed != 1 {
		t.Fatalf("flows=%d missed=%d after hardware-only window, want 1/1 (idle eviction hit an offloaded flow)",
			st.Flows, st.Missed)
	}
	if st.OffloadReadbacks == 0 {
		t.Fatal("no readback sweeps ran")
	}

	// Stop traffic: with hardware quiet too, the flow must expire and its
	// hardware rule must be purged with it.
	eng.RunUntil(stop + 4*idle)
	st = d.Stats()
	if st.Flows != 0 || st.OffloadLive != 0 {
		t.Fatalf("flows=%d hw-live=%d after going idle, want 0/0", st.Flows, st.OffloadLive)
	}
	r.Stop()
}

// TestOffloadDisableFallsBackToSoftware checks runtime disable: rules are
// uninstalled, traffic keeps flowing through the software hierarchy, and
// the ledger closes.
func TestOffloadDisableFallsBackToSoftware(t *testing.T) {
	eng, d, delivered := openOffload(t, "netdev", nil)
	d.Execute(scenarioPacket())
	d.Execute(scenarioPacket())
	eng.RunUntil(150 * sim.Microsecond)
	d.Execute(scenarioPacket())
	if d.Stats().OffloadLive != 1 {
		t.Fatal("flow not offloaded")
	}
	if err := d.SetConfig(map[string]string{"hw-offload": "false"}); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.OffloadLive != 0 {
		t.Fatalf("hardware rules live after disable = %d", st.OffloadLive)
	}
	hw := st.OffloadHits
	d.Execute(scenarioPacket())
	st = d.Stats()
	if st.OffloadHits != hw {
		t.Fatal("hardware forwarded a packet while disabled")
	}
	if *delivered != 4 {
		t.Fatalf("delivered = %d, want 4 (software fallback must forward)", *delivered)
	}
	if err := st.Invariants(); err != nil {
		t.Error(err)
	}
}

// TestOffloadTablePressureFault clamps the hardware table mid-run through
// the fault injector: clamped-out rules fall back to software (no loss, no
// stale forwarding), and the install/evict ledger stays exact throughout.
func TestOffloadTablePressureFault(t *testing.T) {
	// A second ingress rule so two distinct megaflows compete for slots.
	eng, d, delivered := openOffload(t, "netdev", func(cfg *dpif.Config) {
		cfg.Pipeline.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
			Match: ofproto.NewMatch(flow.Fields{InPort: 3},
				flow.NewMaskBuilder().InPort().Build()),
			Actions: []ofproto.Action{ofproto.Output(2)}})
	})
	if err := d.PortAdd(dpif.TxPort{PortID: 3, PortName: "p2",
		Deliver: func(*packet.Packet) {}}); err != nil {
		t.Fatal(err)
	}
	nd := d.(*dpif.Netdev)
	dp := nd.Datapath()
	send := func(port uint32) {
		p := scenarioPacket()
		p.InPort = port
		d.Execute(p)
	}

	// Offload both flows, then clamp the table to one slot beneath them.
	send(1)
	send(3)
	send(1)
	send(3)
	eng.RunUntil(150 * sim.Microsecond)
	send(1)
	send(3)
	if live := d.Stats().OffloadLive; live != 2 {
		t.Fatalf("live = %d, want 2", live)
	}

	inj := faultinject.New(eng)
	inj.Window(faultinject.KindOffloadTablePressure, "nic0",
		200*sim.Microsecond, 300*sim.Microsecond, func(active bool) {
			if active {
				dp.OffloadClamp(1)
			} else {
				dp.OffloadClamp(0) // window closes: clamp released
			}
		})

	eng.RunUntil(250 * sim.Microsecond)
	st := d.Stats()
	if st.OffloadLive != 1 || st.OffloadEvictions != 1 {
		t.Fatalf("live=%d evictions=%d under clamp, want 1/1", st.OffloadLive, st.OffloadEvictions)
	}
	// Both flows still forward: one in hardware, the shed one in software.
	send(1)
	send(3)
	if *delivered != 8 {
		t.Fatalf("delivered = %d, want 8", *delivered)
	}
	st = d.Stats()
	if err := st.Invariants(); err != nil {
		t.Error(err)
	}
	if inj.Windows(faultinject.KindOffloadTablePressure) != 1 {
		t.Error("fault window not recorded")
	}
}
