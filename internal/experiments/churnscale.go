package experiments

// The churnscale scenario measures million-flow churn: sustained datapath
// capacity while megaflows are continuously set up and expired, swept
// across table sizes from 10k to 1M concurrent flows (ROADMAP item:
// million-flow churn, unlocked by the zero-alloc simulator core).
//
// The workload models a load balancer or NAT box under connection churn:
// an active window of N five-tuples receives round-robin traffic while the
// window's base advances at a fixed churn rate — every advance retires the
// oldest flow (its traffic stops; the wheel revalidator expires it) and
// exposes a new one (its first packet misses, upcalls, and installs a
// fresh megaflow). Steady state therefore exercises, simultaneously: the
// upcall path at the flow-setup rate, the dpcls at the table size, the
// EMC/SMC invalidation discipline at the eviction rate, and the
// revalidator's expiry machinery — the combination the per-delete EMC
// flush historically collapsed under.
//
// Every flow id maps to one of two megaflow masks (by id parity), so the
// classifier runs two subtables and the usage-ranked probe order stays
// exercised under churn. All measurements are in the virtual domain —
// the JSON output is byte-identical run to run at fixed defaults.

import (
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/trafficgen"
)

// ChurnscalePoint is one measured (table size, setup rate) configuration.
// Every field is computed in the virtual domain, so a point is
// deterministic for a given profile.
type ChurnscalePoint struct {
	Name  string `json:"name"`
	Flows int    `json:"flows"`
	// RatePPS is the offered packet rate; ChurnPerS the flow-setup (and
	// retirement) rate.
	RatePPS   float64 `json:"rate_pps"`
	ChurnPerS float64 `json:"churn_per_s"`
	// IdleMs is the revalidator idle timeout; WindowMs the measured window.
	IdleMs   float64 `json:"idle_ms"`
	WindowMs float64 `json:"window_ms"`
	// Packets is the number of packets executed during the window.
	Packets uint64 `json:"packets"`
	// NsPerPkt is PMD busy nanoseconds per packet over the window,
	// including the upcall storm the churn sustains; CapacityMpps is its
	// reciprocal — what one core sustains at this table size and setup
	// rate.
	NsPerPkt     float64 `json:"ns_per_pkt"`
	CapacityMpps float64 `json:"capacity_mpps"`
	// Upcalls counts slow-path misses during the window (≈ churn rate ×
	// window when the caches behave; a cache-invalidation bug inflates it
	// toward the packet rate).
	Upcalls uint64 `json:"upcalls"`
	// Installs/Evicted are the window's flow-table deltas as seen by the
	// wheel revalidator; RevalChecks its deadline firings.
	Installs    uint64 `json:"installs"`
	Evicted     uint64 `json:"evicted"`
	RevalChecks uint64 `json:"reval_checks"`
	// RevalDutyPct is the dedicated revalidator CPU's busy share of the
	// window: per-flow check work amortized to once per idle timeout plus
	// eviction work proportional to the expiry rate — not to table reads
	// per sweep.
	RevalDutyPct float64 `json:"reval_duty_pct"`
	// Events is the number of engine events executed during the window.
	Events uint64 `json:"events"`
	// TotalInstalls/TotalEvicted/LiveAfterDrain form the conservation
	// ledger over the whole run: after the post-window drain, every
	// install must be accounted for as an eviction or a live flow
	// (LedgerOK), and the drain must reach zero live flows.
	TotalInstalls  uint64 `json:"total_installs"`
	TotalEvicted   uint64 `json:"total_evicted"`
	LiveAfterDrain int    `json:"live_after_drain"`
	LedgerOK       bool   `json:"ledger_ok"`
}

// churnscaleConfig parameterizes one point.
type churnscaleConfig struct {
	name      string
	flows     int
	ratePPS   float64
	churnPerS float64
	idle      sim.Time
	window    sim.Time
}

// churnscalePoints returns the sweep for a profile, cheapest first. The
// quick profile runs a single shortened 10k point (the CI smoke shape);
// full adds 100k and the headline 1M-concurrent-megaflow point. Each
// window spans exactly one idle period: wheel deadlines are phase-locked
// to install cohorts (the whole fill cohort fires in a burst once per
// idle timeout), so a shorter window can miss the burst entirely and
// report a misleadingly idle revalidator.
func churnscalePoints(quick bool) []churnscaleConfig {
	if quick {
		return []churnscaleConfig{
			{"10k", 10_000, 2e6, 5e4, 12 * sim.Millisecond, 12 * sim.Millisecond},
		}
	}
	return []churnscaleConfig{
		{"10k", 10_000, 2e6, 5e4, 20 * sim.Millisecond, 20 * sim.Millisecond},
		{"100k", 100_000, 8e6, 1e5, 60 * sim.Millisecond, 60 * sim.Millisecond},
		{"1m", 1_000_000, 2e7, 2e5, 300 * sim.Millisecond, 300 * sim.Millisecond},
	}
}

// churnMasks are the two megaflow shapes flow ids alternate between (by
// parity), giving the classifier two subtables whose usage-ranked probe
// order stays exercised under churn.
func churnMasks() [2]flow.Mask {
	base := func() *flow.MaskBuilder {
		return flow.NewMaskBuilder().InPort().EthType().IPProto().
			IP4Src(32).IP4Dst(32).TPDst()
	}
	return [2]flow.Mask{base().TPSrc().Build(), base().Build()}
}

// churnFrame is the 64-byte UDP frame the churnscale and offload generators
// patch flow ids into (the source address is the only field they vary, so
// the slow path can recover an id's parity from it).
func churnFrame() []byte {
	return hdr.NewBuilder().
		Eth(hdr.MAC{0x02, 0xaa, 0, 0, 0, 1}, hdr.MAC{0x02, 0xbb, 0, 0, 0, 1}).
		IPv4H(hdr.MakeIP4(10, 0, 0, 0), hdr.MakeIP4(10, 255, 0, 1), 64).
		UDPH(1000, 2000).PadTo(64).Build()
}

// slideWindow advances the generator's window base at churnPerS until the
// generator stops: each advance retires the oldest flow and exposes a new
// one.
func slideWindow(g *trafficgen.SrcIPGen, churnPerS float64) {
	interval := sim.Time(float64(sim.Second) / churnPerS)
	if interval <= 0 {
		interval = 1
	}
	next := g.Eng.Now() + interval
	var tick func()
	tick = func() {
		if g.Stopped() {
			return
		}
		g.Base++
		next += interval
		g.Eng.ScheduleAt(next, tick)
	}
	g.Eng.ScheduleAt(next, tick)
}

// runChurnscalePoint executes one configuration: fill the table, measure a
// churning steady-state window, then stop traffic and drain the table
// through the wheel revalidator.
func runChurnscalePoint(c churnscaleConfig) ChurnscalePoint {
	masks := churnMasks()
	// Every megaflow shares one action list, as a rule's megaflows do.
	out := []ofproto.DPAction{{Type: ofproto.DPOutput, Port: 2}}
	b := newExecuteBed(nil, func(key flow.Key) (ofproto.Megaflow, error) {
		f := key.Unpack()
		return ofproto.Megaflow{Mask: masks[byte(f.IP4Src)&1], Actions: out}, nil
	}, discardSink)

	// The revalidator attaches before any flow exists, so it discovers
	// every install through the flow hook (no map-ordered initial dump).
	r := dpif.StartWheelRevalidator(b.eng, b.d, c.idle)

	// Round-robin traffic over the active flow window [Base, Base+flows).
	g := &trafficgen.SrcIPGen{Eng: b.eng, Template: churnFrame(), Sink: b.execute,
		Class: 10, Window: c.flows}
	g.Run(c.ratePPS)
	slideWindow(g, c.churnPerS)

	// Fill: one full round of the window installs every flow. Warmup then
	// extends one idle timeout past the fill so the first cohort of wheel
	// deadlines is already firing — the measured window sees the
	// revalidator's steady-state load (checks at flows/idle, evictions at
	// the churn rate), not the quiet period before any deadline matures.
	fill := sim.Time(float64(c.flows) / c.ratePPS * float64(sim.Second))
	warmup := fill + c.idle + 5*sim.Millisecond
	b.eng.RunUntil(warmup)

	inst0, evic0, chk0 := r.Installs, r.Evicted, r.Checks
	w := b.measure(warmup+c.window, g)
	pt := ChurnscalePoint{
		Name: c.name, Flows: c.flows,
		RatePPS: c.ratePPS, ChurnPerS: c.churnPerS,
		IdleMs:       float64(c.idle) / float64(sim.Millisecond),
		WindowMs:     float64(c.window) / float64(sim.Millisecond),
		Packets:      w.packets,
		NsPerPkt:     w.nsPerPkt,
		CapacityMpps: w.capacityMpps,
		Upcalls:      w.after.Missed - w.before.Missed,
		Installs:     r.Installs - inst0,
		Evicted:      r.Evicted - evic0,
		RevalChecks:  r.Checks - chk0,
		RevalDutyPct: 100 * float64(r.CPU.BusyTotal()) / float64(c.window),
		Events:       w.events,
	}

	// Drain: with no hits, every live flow's next deadline evicts it, so
	// the table must empty within a few idle timeouts.
	b.drain(c.idle, b.flows, g)
	pt.TotalInstalls = r.Installs
	pt.TotalEvicted = r.Evicted
	pt.LiveAfterDrain = b.flows()
	pt.LedgerOK = r.Installs == r.Evicted+uint64(pt.LiveAfterDrain)
	r.Stop()
	return pt
}

func init() {
	registerSweep(sweep[ChurnscalePoint]{
		id:          "churnscale",
		title:       "million-flow churn: capacity vs table size under flow setup/expiry",
		reportTitle: "flow churn sweep (setup rate x table size, wheel-revalidated expiry)",
		points: func(p Profile) (pts []sweepPoint[ChurnscalePoint]) {
			for _, c := range churnscalePoints(p.quick()) {
				pts = append(pts, sweepPoint[ChurnscalePoint]{c.name, func() ChurnscalePoint { return runChurnscalePoint(c) }})
			}
			return pts
		},
		report: func(rep *Report, pt ChurnscalePoint) {
			rep.Add(pt.Name+" flows: capacity per core", pt.CapacityMpps, 0, "Mpps")
			rep.Add(pt.Name+" flows: busy time per packet", pt.NsPerPkt, 0, "ns/pkt")
			rep.Add(pt.Name+" flows: upcalls in window", float64(pt.Upcalls), 0, "upcalls")
			rep.Add(pt.Name+" flows: revalidator duty cycle", pt.RevalDutyPct, 0, "%")
			rep.AddNote("%s: installs %d = evicted %d + live %d after drain (ledger %s); %d reval checks, %d engine events in window",
				pt.Name, pt.TotalInstalls, pt.TotalEvicted, pt.LiveAfterDrain, ledgerWord(pt.LedgerOK),
				pt.RevalChecks, pt.Events)
		},
	})
}
