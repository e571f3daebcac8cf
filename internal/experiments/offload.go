package experiments

// The offload scenario measures hardware flow offload: elephants and mice
// share one datapath, the offload engine pushes the elephant megaflows
// down into the NIC flow table, and the headline is the capacity (and PMD
// cycles) freed versus the same offered load handled entirely in software
// (ROADMAP item: hardware offload, unlocked by the nicsim NIC model).
//
// The workload is the canonical heavy-tailed mix: a few hundred elephant
// flows carrying 80% of the bytes, a few thousand mice carrying the rest,
// all at the same frame size so byte share equals packet share. Points
// walk the hardware table-pressure axis: a baseline with offload off, a
// "fit" point whose rule memory holds every elephant, and a "pressure"
// point whose table is smaller than the elephant set — with a fault window
// clamping it further mid-run — so admission control, eviction, and the
// software fallback are all exercised.
//
// Two correctness ledgers ride along: installs = evictions + uninstalls +
// live must hold exactly on the hardware table, and the counter-readback
// merge must keep hardware-hot flows out of the revalidator's idle
// eviction (a window several idle-timeouts long with zero software hits on
// the elephants is the proof). All measurements are in the virtual domain
// — the JSON output is byte-identical run to run at fixed defaults.

import (
	"fmt"

	"ovsxdp/internal/api"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/faultinject"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/kit"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/trafficgen"
)

// OffloadPoint is one measured offload configuration. Every field is
// computed in the virtual domain, so a point is deterministic for a given
// profile.
type OffloadPoint struct {
	Name string `json:"name"`
	// HWTableSize is the NIC rule-table capacity; 0 means offload off.
	HWTableSize int `json:"hw_table_size"`
	// Elephants/Mice are the flow counts; ElephantPktSharePct their
	// offered packet (= byte, same frame size) share.
	Elephants           int     `json:"elephants"`
	Mice                int     `json:"mice"`
	ElephantPktSharePct float64 `json:"elephant_pkt_share_pct"`
	WindowMs            float64 `json:"window_ms"`
	Packets             uint64  `json:"packets"`
	// OffloadHits is the window's hardware-forwarded packet count;
	// OffloadSharePct its share of the window's packets.
	OffloadHits     uint64  `json:"offload_hits"`
	OffloadSharePct float64 `json:"offload_share_pct"`
	// NsPerPkt is PMD busy nanoseconds per packet over the window;
	// CapacityMpps its reciprocal.
	NsPerPkt     float64 `json:"ns_per_pkt"`
	CapacityMpps float64 `json:"capacity_mpps"`
	// MppsRatio and CyclesFreedPct compare against the baseline point at
	// the same offered load (zero on the baseline itself).
	MppsRatio      float64 `json:"mpps_ratio"`
	CyclesFreedPct float64 `json:"cycles_freed_pct"`
	// Upcalls and RevalEvicted over the window: both stay ~zero when the
	// readback merge keeps offloaded flows alive — a broken merge shows
	// up as idle evictions followed by an upcall storm.
	Upcalls      uint64 `json:"upcalls"`
	RevalEvicted uint64 `json:"reval_evicted"`
	// The hardware-table conservation ledger, end of run (after drain):
	// Installs == Evictions + Uninstalls + Live.
	Installs   uint64 `json:"installs"`
	Evictions  uint64 `json:"evictions"`
	Uninstalls uint64 `json:"uninstalls"`
	Refused    uint64 `json:"refused"`
	Live       int    `json:"live"`
	LedgerOK   bool   `json:"ledger_ok"`
	// Readbacks counts counter sweeps; HWMergedHits the hardware hits
	// they merged into megaflow stats (the revalidator-aliveness feed).
	Readbacks    uint64 `json:"readbacks"`
	HWMergedHits uint64 `json:"hw_merged_hits"`
	// FaultClamped marks the pressure point's mid-window capacity clamp.
	FaultClamped bool `json:"fault_clamped"`
	// LiveAfterDrain is the hardware-table occupancy after traffic stops
	// and the revalidator expires every megaflow: the FlowDel purge
	// discipline must leave it at zero.
	LiveAfterDrain int `json:"live_after_drain"`
}

// OffloadResult is the BENCH_offload.json schema.
type OffloadResult struct {
	api.Envelope
	Points []OffloadPoint `json:"points"`
}

// offloadConfig parameterizes one point.
type offloadConfig struct {
	name      string
	tableSize int  // 0 = offload off
	clamp     bool // arm the offload-table-pressure fault mid-window
}

// The traffic mix: 256 elephants at 4 Mpps total versus 4096 mice at
// 1 Mpps total — identical 64-byte frames, so elephants carry 80% of both
// packets and bytes. Per-flow that is ~15.6k pps per elephant against
// ~244 pps per mouse, and the 4000-pps elephant threshold splits the two
// populations with two orders of magnitude of margin on either side.
const (
	offloadElephants   = 256
	offloadMice        = 4096
	offloadElephantPPS = 4e6
	offloadMousePPS    = 1e6
	offloadThreshold   = 4000 // hw-offload-elephant-pps
	offloadIdle        = 10 * sim.Millisecond
)

// offloadPoints returns the sweep for a profile, cheapest first. The
// pressure point (table smaller than the elephant set, clamped further by
// a fault window mid-run) only runs in the full profile.
func offloadPoints(quick bool) []offloadConfig {
	pts := []offloadConfig{
		{"baseline", 0, false},
		{"fit", 1024, false},
	}
	if !quick {
		pts = append(pts, offloadConfig{"pressure", 96, true})
	}
	return pts
}

// runOffloadPoint executes one configuration: build an Execute-driven
// netdev datapath, configure offload through the other_config surface,
// warm up past fill and elephant detection, measure a steady-state window,
// then stop traffic and drain the megaflow table through the revalidator
// (which must empty the hardware table with it).
func runOffloadPoint(c offloadConfig, window sim.Time) OffloadPoint {
	eng := sim.NewEngine(1)
	mask := flow.NewMaskBuilder().InPort().EthType().IPProto().
		IP4Src(32).IP4Dst(32).TPSrc().TPDst().Build()
	d := kit.Must(dpif.Open("netdev", dpif.Config{Eng: eng, Pipeline: ofproto.NewPipeline()}))
	if err := d.PortAdd(dpif.TxPort{PortID: 2, PortName: "sink",
		Deliver: func(p *packet.Packet) {}}); err != nil {
		panic(err)
	}
	d.SetUpcall(func(key flow.Key) (ofproto.Megaflow, error) {
		return ofproto.Megaflow{Mask: mask,
			Actions: []ofproto.DPAction{{Type: ofproto.DPOutput, Port: 2}}}, nil
	})
	if c.tableSize > 0 {
		if err := d.SetConfig(map[string]string{
			"hw-offload":              "true",
			"hw-offload-table-size":   fmt.Sprintf("%d", c.tableSize),
			"hw-offload-elephant-pps": fmt.Sprintf("%d", offloadThreshold),
			"hw-offload-readback-us":  "1000",
		}); err != nil {
			panic(err)
		}
	}

	r := dpif.StartWheelRevalidator(eng, d, offloadIdle)

	// Round-robin traffic per flow class; ids are offset per class so
	// elephants and mice never share a five-tuple.
	eg := &trafficgen.SrcIPGen{Eng: eng, Template: churnFrame(), Sink: executeSink(d),
		Class: 10, Window: offloadElephants}
	mg := &trafficgen.SrcIPGen{Eng: eng, Template: churnFrame(), Sink: executeSink(d),
		Class: 10, Base: 1 << 20, Window: offloadMice}
	eg.Run(offloadElephantPPS)
	mg.Run(offloadMousePPS)

	// Warmup covers the mouse fill (4096 flows at 1 Mpps ≈ 4.1 ms) plus a
	// few readback intervals for the elephant EWMA to cross the threshold
	// and the install burst to complete.
	warmup := 8 * sim.Millisecond
	eng.RunUntil(warmup)

	nd := d.(*dpif.Netdev)
	dp := nd.Datapath()
	if c.clamp {
		// Firmware rule-memory pressure mid-window: clamp the table to a
		// fraction of its size for the middle half of the window, forcing
		// evictions out and a re-install wave back in.
		inj := faultinject.New(eng)
		inj.Window(faultinject.KindOffloadTablePressure, "nic0",
			warmup+window/4, window/2, func(active bool) {
				if active {
					dp.OffloadClamp(c.tableSize / 4)
				} else {
					dp.OffloadClamp(0)
				}
			})
	}
	pmd := dp.PMDs()[0]
	for _, cpu := range eng.CPUs() {
		cpu.ResetAccounting()
	}
	sent0 := eg.Sent + mg.Sent
	st0 := d.Stats()
	evic0 := r.Evicted

	eng.RunUntil(warmup + window)

	st1 := d.Stats()
	pkts := eg.Sent + mg.Sent - sent0
	busy := pmd.CPU.BusyTotal()
	pt := OffloadPoint{
		Name:                c.name,
		HWTableSize:         c.tableSize,
		Elephants:           offloadElephants,
		Mice:                offloadMice,
		ElephantPktSharePct: 100 * offloadElephantPPS / (offloadElephantPPS + offloadMousePPS),
		WindowMs:            float64(window) / float64(sim.Millisecond),
		Packets:             pkts,
		OffloadHits:         st1.OffloadHits - st0.OffloadHits,
		Upcalls:             st1.Missed - st0.Missed,
		RevalEvicted:        r.Evicted - evic0,
		FaultClamped:        c.clamp,
	}
	if pkts > 0 {
		pt.NsPerPkt = float64(busy) / float64(pkts)
		pt.CapacityMpps = 1e3 / pt.NsPerPkt
		pt.OffloadSharePct = 100 * float64(pt.OffloadHits) / float64(pkts)
	}

	// Drain: stop traffic; every flow goes idle, the revalidator expires
	// it, and the FlowDel purge discipline must empty the hardware table
	// along with the software caches.
	eg.Stop()
	mg.Stop()
	now := warmup + window
	for step := 0; step < 8 && d.Stats().Flows > 0; step++ {
		now += offloadIdle
		eng.RunUntil(now)
	}
	off := dp.OffloadStats()
	pt.Installs = off.Installs
	pt.Evictions = off.Evictions
	pt.Uninstalls = off.Uninstalls
	pt.Refused = off.Refused
	pt.Live = off.Live
	pt.Readbacks = off.Readbacks
	pt.HWMergedHits = off.HWMergedHits
	pt.LedgerOK = off.Installs == off.Evictions+off.Uninstalls+uint64(off.Live)
	pt.LiveAfterDrain = off.Live
	r.Stop()
	return pt
}

// offloadPointNames lists the sweep's point names for a profile.
func offloadPointNames(p Profile) []string {
	var names []string
	for _, c := range offloadPoints(p.quick()) {
		names = append(names, c.name)
	}
	return names
}

// RunOffload executes the selected points of the offload sweep for a
// profile (all of them when points is empty).
func RunOffload(p Profile, points []string) *OffloadResult {
	window := 40 * sim.Millisecond
	if p.quick() {
		window = 12 * sim.Millisecond
	}
	res := &OffloadResult{Envelope: api.NewEnvelope("offload", 1, p.Name)}
	var baseline *OffloadPoint
	for _, c := range offloadPoints(p.quick()) {
		if !selected(points, c.name) {
			continue
		}
		pt := runOffloadPoint(c, window)
		if pt.HWTableSize == 0 {
			baseline = &pt
		} else if baseline != nil && baseline.NsPerPkt > 0 {
			pt.MppsRatio = pt.CapacityMpps / baseline.CapacityMpps
			pt.CyclesFreedPct = 100 * (baseline.NsPerPkt - pt.NsPerPkt) / baseline.NsPerPkt
		}
		res.Points = append(res.Points, pt)
	}
	return res
}

func init() {
	registerScenario(Scenario{
		ID:     "offload",
		Title:  "hardware flow offload: elephants in the NIC table vs all-software",
		Points: offloadPointNames,
		Run: func(p Profile, points []string) (*Report, any) {
			res := RunOffload(p, points)
			rep := &Report{ID: "offload",
				Title: "elephant offload sweep (NIC flow-table pressure x software fallback)"}
			for _, pt := range res.Points {
				rep.Add(pt.Name+": capacity per core", pt.CapacityMpps, 0, "Mpps")
				rep.Add(pt.Name+": busy time per packet", pt.NsPerPkt, 0, "ns/pkt")
				if pt.HWTableSize > 0 {
					rep.Add(pt.Name+": hw-forwarded share", pt.OffloadSharePct, 0, "%")
					rep.Add(pt.Name+": speedup vs baseline", pt.MppsRatio, 0, "x")
					rep.Add(pt.Name+": PMD cycles freed", pt.CyclesFreedPct, 0, "%")
				}
				rep.AddNote("%s: installs %d = evictions %d + uninstalls %d + live %d (ledger %s); refused %d, %d readbacks merged %d hw hits; window upcalls %d, reval evictions %d, hw live after drain %d",
					pt.Name, pt.Installs, pt.Evictions, pt.Uninstalls, pt.Live, ledgerWord(pt.LedgerOK),
					pt.Refused, pt.Readbacks, pt.HWMergedHits,
					pt.Upcalls, pt.RevalEvicted, pt.LiveAfterDrain)
			}
			return rep, res
		},
	})
}
