// Package ovsxdp's root-level benchmarks regenerate every table and figure
// of the paper's evaluation (one testing.B benchmark per exhibit, running
// the same experiment code as cmd/ovsbench) plus microbenchmarks of the
// datapath hot path and the ablations DESIGN.md calls out.
//
//	go test -bench=. -benchmem
//
// Each Fig*/Table* benchmark reports the headline measurement as a custom
// metric alongside ns/op, so the paper-vs-measured comparison is visible in
// benchmark output; EXPERIMENTS.md holds the full table.
package ovsxdp

import (
	"testing"

	"ovsxdp/internal/afxdp"
	"ovsxdp/internal/core"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/experiments"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/measure"
	"ovsxdp/internal/nicsim"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

// runExperiment executes a registered experiment b.N times, reporting the
// first row's measurement as a metric.
func runExperiment(b *testing.B, id, metricRow, metricName string) {
	e, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	var val float64
	for i := 0; i < b.N; i++ {
		rep := e.Run(experiments.Quick)
		for _, row := range rep.Rows {
			if row.Name == metricRow {
				val = row.Measured
			}
		}
	}
	if metricName != "" {
		b.ReportMetric(val, metricName)
	}
}

func BenchmarkFig1Churn(b *testing.B) { runExperiment(b, "fig1", "2018 backports", "LoC") }
func BenchmarkFig2SingleCore(b *testing.B) {
	runExperiment(b, "fig2", "kernel", "kernel-Mpps")
}
func BenchmarkTable1Compat(b *testing.B) {
	runExperiment(b, "table1", "ip link on afxdp", "works")
}
func BenchmarkTable2Ladder(b *testing.B) {
	runExperiment(b, "table2", "O1..O5", "Mpps")
}
func BenchmarkTable3Ruleset(b *testing.B) {
	runExperiment(b, "table3", "OpenFlow rules", "rules")
}
func BenchmarkTable4CPU(b *testing.B) {
	runExperiment(b, "table4", "P2P afxdp user", "HT")
}
func BenchmarkTable5XDPTasks(b *testing.B) {
	runExperiment(b, "table5", "A: drop only", "Mpps")
}
func BenchmarkFig8aCrossHostTCP(b *testing.B) {
	runExperiment(b, "fig8a", "afxdp + vhost (csum offload)", "Gbps")
}
func BenchmarkFig8bIntraHostTCP(b *testing.B) {
	runExperiment(b, "fig8b", "afxdp + vhost (csum+TSO)", "Gbps")
}
func BenchmarkFig8cContainerTCP(b *testing.B) {
	runExperiment(b, "fig8c", "afxdp XDP redirect", "Gbps")
}
func BenchmarkFig9aP2P(b *testing.B) {
	runExperiment(b, "fig9a", "afxdp 1-flow", "Mpps")
}
func BenchmarkFig9bPVP(b *testing.B) {
	runExperiment(b, "fig9b", "afxdp+vhostuser 1-flow", "Mpps")
}
func BenchmarkFig9cPCP(b *testing.B) {
	runExperiment(b, "fig9c", "afxdp-xdp-redirect 1-flow", "Mpps")
}
func BenchmarkFig10VMLatency(b *testing.B) {
	runExperiment(b, "fig10", "afxdp P50", "P50-us")
}
func BenchmarkFig11ContainerLatency(b *testing.B) {
	runExperiment(b, "fig11", "dpdk P99", "P99-us")
}
func BenchmarkFig12MultiQueue(b *testing.B) {
	runExperiment(b, "fig12", "afxdp-1518B-6q", "Gbps")
}

// --- Hot-path microbenchmarks --------------------------------------------------

// benchP2PPerPacket measures virtual per-packet PMD cost of a P2P forward.
func benchP2PPerPacket(b *testing.B, kind experiments.DPKind, flows int) {
	cfg := experiments.DefaultBed(kind, flows)
	bed := experiments.NewP2PBed(cfg)
	res := experiments.RunProbe(bed, 1e6, 2*sim.Millisecond, 10*sim.Millisecond)
	if res.Delivered == 0 {
		b.Fatal("nothing delivered")
	}
	b.ReportMetric(res.Usage.Total(), "HT")
	// The Go-level work: re-run the packet path b.N times through a fresh
	// bed at small scale to exercise allocation behaviour.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.RunProbe(experiments.NewP2PBed(cfg), 1e5, sim.Millisecond, sim.Millisecond)
	}
}

func BenchmarkMicroP2PAFXDP(b *testing.B)  { benchP2PPerPacket(b, experiments.KindAFXDP, 1) }
func BenchmarkMicroP2PDPDK(b *testing.B)   { benchP2PPerPacket(b, experiments.KindDPDK, 1) }
func BenchmarkMicroP2PKernel(b *testing.B) { benchP2PPerPacket(b, experiments.KindKernel, 1) }

// BenchmarkDpifExecute measures the per-packet Go-level cost of the dpif
// Execute path — one sub-benchmark per registered provider, all driving the
// identical single-flow forward through the provider seam.
func BenchmarkDpifExecute(b *testing.B) {
	frame := hdr.NewBuilder().
		Eth(hdr.MAC{0x02, 0xaa, 0, 0, 0, 1}, hdr.MAC{0x02, 0xbb, 0, 0, 0, 1}).
		IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
		UDPH(1000, 2000).PadTo(64).Build()
	for _, name := range dpif.Types() {
		b.Run(name, func(b *testing.B) {
			eng := sim.NewEngine(1)
			pl := ofproto.NewPipeline()
			pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
				Match: ofproto.NewMatch(flow.Fields{InPort: 1},
					flow.NewMaskBuilder().InPort().Build()),
				Actions: []ofproto.Action{ofproto.Output(2)}})
			d, err := dpif.Open(name, dpif.Config{Eng: eng, Pipeline: pl})
			if err != nil {
				b.Fatal(err)
			}
			var delivered uint64
			if err := d.PortAdd(dpif.TxPort{PortID: 2, PortName: "p1",
				Deliver: func(*packet.Packet) { delivered++ }}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := packet.New(frame)
				p.InPort = 1
				d.Execute(p)
			}
			b.StopTimer()
			if delivered != uint64(b.N) {
				b.Fatalf("delivered %d of %d", delivered, b.N)
			}
			st := d.Stats()
			b.ReportMetric(float64(st.Flows), "flows")
		})
	}
}

// --- Ablations (DESIGN.md section 5) -------------------------------------------

// ablationRate finds the lossless rate under a tweaked configuration.
func ablationRate(b *testing.B, mutate func(*experiments.BedConfig)) float64 {
	b.ReportAllocs()
	cfg := experiments.DefaultBed(experiments.KindAFXDP, 1)
	mutate(&cfg)
	rate, _, _ := measure.LosslessRate(
		measure.SearchConfig{LoPPS: 5e4, HiPPS: 20e6, LossTolerance: 0.002, Iterations: 8},
		func(r float64) measure.ProbeResult {
			bed := experiments.NewP2PBed(cfg)
			return experiments.RunProbe(bed, r, 2*sim.Millisecond, 8*sim.Millisecond)
		})
	return rate
}

func BenchmarkAblationEMCOn(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		rate = ablationRate(b, func(*experiments.BedConfig) {})
	}
	b.ReportMetric(measure.Mpps(rate), "Mpps")
}

func BenchmarkAblationEMCOff(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		rate = ablationRate(b, func(c *experiments.BedConfig) { c.Other = map[string]string{"emc-enable": "false"} })
	}
	b.ReportMetric(measure.Mpps(rate), "Mpps")
}

func BenchmarkAblationMutexLocking(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		rate = ablationRate(b, func(c *experiments.BedConfig) { c.Lock = afxdp.LockMutex })
	}
	b.ReportMetric(measure.Mpps(rate), "Mpps")
}

func BenchmarkAblationNoWildcarding(b *testing.B) {
	// The eBPF datapath's exact-match-only restriction, measured on the
	// kernel path (Section 2.2.2 footnote: megaflows as eBPF maps were
	// rejected).
	b.ReportAllocs()
	var rate float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultBed(experiments.KindEBPF, 1000)
		cfg.KernelQueues = 1
		rate, _, _ = func() (float64, measure.ProbeResult, bool) {
			return measure.LosslessRate(
				measure.SearchConfig{LoPPS: 5e4, HiPPS: 10e6, LossTolerance: 0.002, Iterations: 7},
				func(r float64) measure.ProbeResult {
					bed := experiments.NewP2PBed(cfg)
					return experiments.RunProbe(bed, r, 2*sim.Millisecond, 8*sim.Millisecond)
				})
		}()
	}
	b.ReportMetric(measure.Mpps(rate), "Mpps")
}

func BenchmarkAblationZeroCopy(b *testing.B) {
	// Zero-copy AF_XDP relieves the softirq side; the lossless rate moves
	// only if softirq was the bottleneck (Outcome #2's optimization
	// pipeline).
	var rate float64
	for i := 0; i < b.N; i++ {
		rate = ablationRate(b, func(c *experiments.BedConfig) { c.ZeroCopy = true })
	}
	b.ReportMetric(measure.Mpps(rate), "Mpps")
}

// BenchmarkVerifier measures eBPF program verification (the per-port-add
// cost vswitchd pays when loading the XDP program).
func BenchmarkVerifier(b *testing.B) {
	eng := sim.NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nic := nicsim.New(eng, nicsim.Config{Name: "bench", Ifindex: uint32(i + 1), Queues: 4})
		if _, err := core.AttachDefaultProgram(nic); err != nil {
			b.Fatal(err)
		}
	}
}
