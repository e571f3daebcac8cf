package experiments

import (
	"strconv"

	"ovsxdp/internal/afxdp"
	"ovsxdp/internal/core"
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/measure"
)

// Figure 2: single-core, single-flow 64B forwarding across the kernel
// module, the eBPF-at-tc datapath, and DPDK. The headline shape: DPDK far
// ahead, eBPF 10-20% behind the kernel module.
//
// Table 2: the AF_XDP optimization ladder, cumulative O1..O5.

func init() {
	register(Experiment{ID: "fig2", Title: "Single-core datapath comparison (Figure 2)", Run: runFig2})
	register(Experiment{ID: "table2", Title: "AF_XDP optimization ladder (Table 2)", Run: runTable2})
}

func runFig2(p Profile) *Report {
	r := &Report{ID: "fig2", Title: "64B single-flow forwarding rate, one core"}
	cases := []struct {
		kind  DPKind
		paper float64
	}{
		{KindKernel, 1.9}, // single softirq core
		{KindEBPF, 1.65},  // 10-20% below the module
		{KindDPDK, 11.0},
	}
	var rates []float64
	for _, c := range cases {
		cfg := DefaultBed(c.kind, 1)
		cfg.KernelQueues = 1 // single core
		rate, _, _ := measure.LosslessRate(searchConfig(p, 40e6),
			fig9Probe(p, func() *Bed { return NewP2PBed(cfg) }, nil))
		r.Add(c.kind.String(), measure.Mpps(rate), c.paper, "Mpps")
		rates = append(rates, rate)
	}
	r.AddNote("shape: dpdk >> kernel > ebpf; ebpf/kernel = %.2f (paper 0.80-0.90)", rates[1]/rates[0])
	return r
}

func runTable2(p Profile) *Report {
	r := &Report{ID: "table2", Title: "single-flow 64B rate per optimization level"}
	base := core.DefaultOptions()
	noO4 := base
	noO4.MetadataPrealloc = false
	withO5 := base
	withO5.AssumeCsumOffload = true

	cases := []struct {
		name  string
		opts  core.Options
		lock  afxdp.LockMode
		mode  core.Mode
		paper float64
	}{
		{"none", noO4, afxdp.LockMutex, core.ModeNonPMD, 0.8},
		{"O1", noO4, afxdp.LockMutex, core.ModePoll, 4.8},
		{"O1+O2", noO4, afxdp.LockSpin, core.ModePoll, 6.0},
		{"O1+O2+O3", noO4, afxdp.LockSpinBatched, core.ModePoll, 6.3},
		{"O1..O4", base, afxdp.LockSpinBatched, core.ModePoll, 6.6},
		{"O1..O5", withO5, afxdp.LockSpinBatched, core.ModePoll, 7.1},
	}
	prev := 0.0
	for _, c := range cases {
		cfg := DefaultBed(KindAFXDP, 1)
		cfg.Opts = c.opts
		cfg.Lock = c.lock
		cfg.Mode = c.mode
		rate, _, _ := measure.LosslessRate(searchConfig(p, 20e6),
			fig9Probe(p, func() *Bed { return NewP2PBed(cfg) }, nil))
		r.Add(c.name, measure.Mpps(rate), c.paper, "Mpps")
		if measure.Mpps(rate) <= prev {
			r.AddNote("WARNING: %s did not improve on the previous level", c.name)
		}
		prev = measure.Mpps(rate)
	}
	return r
}

// Figure 12: multi-queue P2P scaling at 25 GbE, AF_XDP vs DPDK, 64B and
// 1518B frames, 1/2/4/6 queues.
func init() {
	register(Experiment{ID: "fig12", Title: "Multi-queue P2P throughput (Figure 12)", Run: runFig12})
}

func runFig12(p Profile) *Report {
	r := &Report{ID: "fig12", Title: "P2P throughput vs queue count, 25GbE"}
	lineRate64 := costmodel.LineRatePPS(costmodel.LinkRate25G, 64)
	lineRate1518 := costmodel.LineRatePPS(costmodel.LinkRate25G, 1518)

	for _, kind := range []DPKind{KindAFXDP, KindDPDK} {
		for _, frame := range []int{64, 1518} {
			for _, queues := range []int{1, 2, 4, 6} {
				cfg := DefaultBed(kind, 256) // many flows so RSS spreads
				cfg.FrameSize = frame
				cfg.Queues = queues
				if kind == KindAFXDP {
					cfg.Opts.ContentionCentis = costmodel.ContentionAFXDPCentis
				} else {
					cfg.Opts.ContentionCentis = costmodel.ContentionDPDKCentis
				}
				hi := lineRate64 * 1.02
				if frame == 1518 {
					hi = lineRate1518 * 1.02
				}
				rate, _, _ := measure.LosslessRate(searchConfig(p, hi),
					fig9Probe(p, func() *Bed { return NewP2PBed(cfg) }, nil))
				gbps := rate * float64(frame+costmodel.EthernetOverheadBytes) * 8 / 1e9
				paper := fig12Paper(kind, frame, queues)
				r.Add(caseName(kind, frame, queues), gbps, paper, "Gbps")
			}
		}
	}
	r.AddNote("paper anchors: AF_XDP reaches 25G line rate at 1518B with 6 queues; 64B tops ~12 Mpps (~8 Gbps); DPDK leads throughout")
	return r
}

func caseName(kind DPKind, frame, queues int) string {
	return kind.String() + "-" + strconv.Itoa(frame) + "B-" + strconv.Itoa(queues) + "q"
}

// fig12Paper returns the approximate Figure 12 bar heights in Gbps.
func fig12Paper(kind DPKind, frame, queues int) float64 {
	type key struct {
		k DPKind
		f int
		q int
	}
	anchors := map[key]float64{
		{KindAFXDP, 64, 1}: 4.5, {KindAFXDP, 64, 2}: 6.0, {KindAFXDP, 64, 4}: 7.5, {KindAFXDP, 64, 6}: 8.1,
		{KindDPDK, 64, 1}: 7.4, {KindDPDK, 64, 2}: 11.0, {KindDPDK, 64, 4}: 16.0, {KindDPDK, 64, 6}: 19.0,
		{KindAFXDP, 1518, 1}: 13.0, {KindAFXDP, 1518, 2}: 20.0, {KindAFXDP, 1518, 4}: 24.0, {KindAFXDP, 1518, 6}: 25.0,
		{KindDPDK, 1518, 1}: 25.0, {KindDPDK, 1518, 2}: 25.0, {KindDPDK, 1518, 4}: 25.0, {KindDPDK, 1518, 6}: 25.0,
	}
	return anchors[key{kind, frame, queues}]
}
