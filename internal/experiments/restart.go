package experiments

import (
	"ovsxdp/internal/core"
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/sim"
)

// The restart scenario reproduces Section 6's operational argument for the
// userspace datapath: upgrading ovs-vswitchd with dpif-netdev only pauses
// the PMD threads for the daemon's restart gap, while upgrading the kernel
// module requires unloading and reloading it — a much longer outage — and
// both must rebuild their flow tables through re-upcalls afterwards. The
// scenario tears the datapath down mid-run, measures packets lost during
// the gap, and reports the loss for userspace-AF_XDP vs the kernel module.
func init() {
	registerScenario(Scenario{
		ID:    "restart",
		Title: "vswitchd restart/upgrade: loss gap, userspace-AF_XDP vs kernel",
		Run:   reportOnly(runRestart),
	})
}

// restartResult is one trial's outcome.
type restartResult struct {
	gap        sim.Time
	sent       uint64
	delivered  uint64
	lost       uint64
	reupcalls  uint64
	flowsAfter int
}

// restartTrial runs one bed at ratePPS, stops its packet-processing threads
// at p.Warmup for the kind's restart gap, flushes the flow table (the new
// daemon/module starts empty), resumes, and lets the run drain.
func restartTrial(kind DPKind, gap sim.Time, p Profile, ratePPS float64) restartResult {
	cfg := DefaultBed(kind, 64)
	// One receive queue on both datapaths so the loss gap is bounded by the
	// same single NIC ring, not by RSS width.
	cfg.KernelQueues = 1
	bed := NewP2PBed(cfg)

	runout := 5 * sim.Millisecond
	total := p.Warmup + gap + runout
	bed.Gen.Run(ratePPS, total)
	bed.Eng.RunUntil(p.Warmup)
	missedBefore := bed.DP.Stats().Missed

	// Teardown: the old daemon (or module) goes away. PMD threads stop
	// polling; softirq actors stop draining NIC rings. The datapath flow
	// table does not survive the restart.
	var pmds []*core.PMD
	if nd, ok := bed.DP.(*dpif.Netdev); ok {
		pmds = nd.Datapath().PMDs()
	}
	for _, m := range pmds {
		m.Stop()
	}
	for _, a := range bed.Actors {
		a.Stop()
	}
	bed.DP.FlowFlush()
	bed.Eng.RunUntil(p.Warmup + gap)

	// Recovery: the new daemon attaches to the same rings and rebuilds the
	// flow table through re-upcalls against the unchanged pipeline.
	for _, m := range pmds {
		m.Start()
	}
	for _, a := range bed.Actors {
		a.Resume()
	}
	bed.Eng.RunUntil(total + sim.Millisecond)

	return restartResult{
		gap:        gap,
		sent:       bed.Gen.Sent,
		delivered:  bed.Delivered,
		lost:       bed.Gen.Sent - bed.Delivered,
		reupcalls:  bed.DP.Stats().Missed - missedBefore,
		flowsAfter: bed.DP.Stats().Flows,
	}
}

func runRestart(p Profile) *Report {
	r := &Report{ID: "restart", Title: "vswitchd restart/upgrade loss gap (1 Mpps, 64B, 1 rxq)"}
	const rate = 1e6

	af := restartTrial(KindAFXDP, costmodel.VswitchdRestartGap, p, rate)
	kn := restartTrial(KindKernel, costmodel.KernelModuleReloadGap, p, rate)

	r.Add("afxdp: restart gap", float64(af.gap)/float64(sim.Microsecond), 0, "us")
	r.Add("afxdp: packets lost across restart", float64(af.lost), 0, "pkts")
	r.Add("afxdp: re-upcalls to rebuild flows", float64(af.reupcalls), 0, "upcalls")
	r.Add("kernel: module reload gap", float64(kn.gap)/float64(sim.Microsecond), 0, "us")
	r.Add("kernel: packets lost across restart", float64(kn.lost), 0, "pkts")
	r.Add("kernel: re-upcalls to rebuild flows", float64(kn.reupcalls), 0, "upcalls")
	r.AddNote("afxdp delivered %d/%d, kernel %d/%d; NIC rings buffer the gap until they overflow",
		af.delivered, af.sent, kn.delivered, kn.sent)
	if af.lost < kn.lost {
		r.AddNote("userspace restart loses %.1fx fewer packets than a kernel module reload",
			float64(kn.lost)/float64(max(af.lost, 1)))
	} else {
		r.AddNote("WARNING: expected strictly smaller loss for the userspace restart")
	}
	return r
}
