package experiments

import (
	"ovsxdp/internal/measure"
	"ovsxdp/internal/perf"
	"ovsxdp/internal/sim"
)

// Figure 9: forwarding rate and CPU consumption for P2P, PVP, and PCP
// loopbacks, at 1 and 1,000 flows, across the kernel, AF_XDP, and DPDK
// datapaths. Paper anchors are approximate bar heights; the reproduction
// targets the orderings and CPU-category shapes (Table 4 holds the exact
// CPU numbers).

func init() {
	register(Experiment{ID: "fig9a", Title: "P2P forwarding rate and CPU (Figure 9a)", Run: runFig9a})
	register(Experiment{ID: "fig9b", Title: "PVP forwarding rate and CPU (Figure 9b)", Run: runFig9b})
	register(Experiment{ID: "fig9c", Title: "PCP forwarding rate and CPU (Figure 9c)", Run: runFig9c})
	register(Experiment{ID: "table4", Title: "CPU use by category at 1000 flows (Table 4)", Run: runTable4})
}

// addPerfRows appends the opt-in per-stage attribution: for each processing
// thread of the case's final probe, the amortized virtual-time cost of every
// datapath stage (the pmd-perf-show breakdown in experiment-report form).
func addPerfRows(r *Report, name string, threads []perf.ThreadStats) {
	for _, t := range threads {
		for st := perf.StageRx; st < perf.NumStages; st++ {
			if t.Cycles[st] == 0 {
				continue
			}
			r.Add(name+" "+t.Name+" "+st.String(), t.CyclesPerPacket(st), 0, "ns/pkt")
		}
	}
}

// p2p, pvp and pcp are a lossless search's bed sources: Figure 9's three
// loopbacks, a fresh bed per call.
func p2p(cfg BedConfig) func() *Bed { return func() *Bed { return NewP2PBed(cfg) } }

// pvp builds the PVP loopback at the defaults with the VM attached by vd.
func pvp(kind DPKind, vd VDevKind, flows int) func() *Bed {
	cfg := DefaultBed(kind, flows)
	cfg.VDev = vd
	return func() *Bed { return NewPVPBed(cfg) }
}

func pcp(mode PCPMode, flows int) func() *Bed {
	return func() *Bed { return NewPCPBed(mode, flows) }
}

func runFig9a(p Profile) *Report {
	r := &Report{ID: "fig9a", Title: "P2P max lossless rate (64B) and CPU"}
	cases := []struct {
		kind  DPKind
		flows int
		paper float64 // approximate bar heights (Mpps)
	}{
		{KindKernel, 1, 1.9},
		{KindKernel, 1000, 4.8},
		{KindAFXDP, 1, 7.1},
		{KindAFXDP, 1000, 5.7},
		{KindDPDK, 1, 11.0},
		{KindDPDK, 1000, 9.0},
	}
	for _, c := range cases {
		res := losslessSearch(p, 40e6, p2p(DefaultBed(c.kind, c.flows)))
		name := c.kind.String() + flowsSuffix(c.flows)
		r.Add(name, measure.Mpps(res.rate), c.paper, "Mpps")
		r.Add(name+" cpu", res.usage.Total(), 0, "HT")
		addPerfRows(r, name, res.perf)
	}
	r.AddNote("orderings to hold: dpdk > afxdp > kernel@1flow; kernel@1000 > kernel@1 (RSS)")
	return r
}

func runFig9b(p Profile) *Report {
	r := &Report{ID: "fig9b", Title: "PVP max lossless rate (64B) and CPU"}
	cases := []struct {
		kind  DPKind
		vd    VDevKind
		flows int
		paper float64
	}{
		{KindKernel, VDevTap, 1, 0.9},
		{KindKernel, VDevTap, 1000, 2.0},
		{KindAFXDP, VDevTap, 1, 1.1},
		{KindAFXDP, VDevTap, 1000, 1.0},
		{KindAFXDP, VDevVhost, 1, 2.5},
		{KindAFXDP, VDevVhost, 1000, 2.2},
		{KindDPDK, VDevVhost, 1, 3.5},
		{KindDPDK, VDevVhost, 1000, 3.1},
	}
	for _, c := range cases {
		res := losslessSearch(p, 20e6, pvp(c.kind, c.vd, c.flows))
		name := c.kind.String() + "+" + c.vd.String() + flowsSuffix(c.flows)
		r.Add(name, measure.Mpps(res.rate), c.paper, "Mpps")
		r.Add(name+" cpu", res.usage.Total(), 0, "HT")
		addPerfRows(r, name, res.perf)
	}
	r.AddNote("orderings: vhostuser > tap everywhere; afxdp+vhost ~ 0.7x dpdk+vhost")
	return r
}

func runFig9c(p Profile) *Report {
	r := &Report{ID: "fig9c", Title: "PCP max lossless rate (64B) and CPU"}
	cases := []struct {
		mode  PCPMode
		flows int
		paper float64
	}{
		{PCPKernel, 1, 1.2},
		{PCPKernel, 1000, 1.5},
		{PCPAFXDPRedir, 1, 3.0},
		{PCPAFXDPRedir, 1000, 3.0},
		{PCPDPDK, 1, 1.0},
		{PCPDPDK, 1000, 0.9},
	}
	for _, c := range cases {
		res := losslessSearch(p, 20e6, pcp(c.mode, c.flows))
		name := c.mode.String() + flowsSuffix(c.flows)
		r.Add(name, measure.Mpps(res.rate), c.paper, "Mpps")
		r.Add(name+" cpu", res.usage.Total(), 0, "HT")
		addPerfRows(r, name, res.perf)
	}
	r.AddNote("ordering: afxdp (XDP redirect, path C) beats both kernel and dpdk in rate and CPU")
	return r
}

// Table 4: the CPU category split at 1,000 flows, in hyperthreads.
func runTable4(p Profile) *Report {
	r := &Report{ID: "table4", Title: "CPU use with 1000 flows (hyperthreads per category)"}

	cases := []struct {
		name                      string
		hiPPS                     float64
		beds                      func() *Bed
		sys, softirq, guest, user float64
	}{
		{"P2P kernel", 40e6, p2p(DefaultBed(KindKernel, 1000)), 0.1, 9.7, 0, 0.1},
		{"P2P dpdk", 40e6, p2p(DefaultBed(KindDPDK, 1000)), 0, 0, 0, 1.0},
		{"P2P afxdp", 40e6, p2p(DefaultBed(KindAFXDP, 1000)), 0.1, 1.1, 0, 0.9},
		{"PVP kernel+tap", 20e6, pvp(KindKernel, VDevTap, 1000), 1.2, 6.0, 1.1, 0.2},
		{"PVP dpdk+vhost", 20e6, pvp(KindDPDK, VDevVhost, 1000), 0.9, 0, 1.0, 1.0},
		{"PVP afxdp+vhost", 20e6, pvp(KindAFXDP, VDevVhost, 1000), 0.9, 0.8, 1.0, 1.9},
		{"PCP kernel", 20e6, pcp(PCPKernel, 1000), 0, 1.5, 0, 0},
		{"PCP dpdk", 20e6, pcp(PCPDPDK, 1000), 0.3, 0.5, 0, 0.2},
		{"PCP afxdp-xdp-redirect", 20e6, pcp(PCPAFXDPRedir, 1000), 0, 1.0, 0, 0},
	}
	for _, c := range cases {
		u := losslessSearch(p, c.hiPPS, c.beds)
		r.Add(c.name+" system", u.usage[sim.System], c.sys, "HT")
		r.Add(c.name+" softirq", u.usage[sim.Softirq], c.softirq, "HT")
		r.Add(c.name+" guest", u.usage[sim.Guest], c.guest, "HT")
		r.Add(c.name+" user", u.usage[sim.User], c.user, "HT")
		addPerfRows(r, c.name, u.perf)
	}
	r.AddNote("paper values are Table 4 verbatim; busy-poll PMD threads always report ~1.0 user per thread")
	return r
}

func flowsSuffix(flows int) string {
	if flows == 1 {
		return " 1-flow"
	}
	return " 1000-flow"
}
