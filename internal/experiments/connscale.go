package experiments

// The connscale scenario measures per-user connection state at scale:
// sustained datapath capacity with the conntrack table holding 10k to 1M
// concurrent established connections (ROADMAP item: stateful scaling),
// swept across shard counts, plus a SYN-flood arm that measures what the
// graceful-degradation ladder buys — established-connection goodput held
// while embryonic attack state is shed.
//
// The steady points model a stateful firewall: every packet recirculates
// through ct(commit) and a second classifier pass matches on ct_state
// (established or legitimate-new to the sink, everything else shed) — the
// NSX firewall shape of fig8, scaled to a million tracked connections.
// Connections are established cheaply via loose TCP pickup (one mid-stream
// ACK each, the nf_conntrack_tcp_loose behavior), then Loose is switched
// off so a wrongly evicted established connection would visibly misroute
// as invalid instead of being silently re-adopted.
//
// The SYN-flood arm runs the same bed twice — ladder limits
// (SetZoneLimits) vs the per-zone hard limit (SetZoneLimit) — and compares
// goodput under flood to the no-flood baseline of the same run. All
// measurements are in the virtual domain — the JSON output is
// byte-identical run to run at fixed defaults.

import (
	"fmt"

	"ovsxdp/internal/conntrack"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/trafficgen"
)

// ConnscalePoint is one measured configuration. Steady points sweep
// (concurrent connections x shards); the synflood point (Flood true) adds
// the goodput-held comparison.
type ConnscalePoint struct {
	Name    string  `json:"name"`
	Conns   int     `json:"conns"`
	Shards  int     `json:"shards"`
	RatePPS float64 `json:"rate_pps"`
	// WindowMs is the measured window (per phase, for the flood arm).
	WindowMs float64 `json:"window_ms"`
	// Packets/Delivered cover the measured window: executed packets and
	// sink-port deliveries (established + admitted-new goodput).
	Packets   uint64 `json:"packets"`
	Delivered uint64 `json:"delivered"`
	// NsPerPkt is PMD busy nanoseconds per packet over the window
	// (two classifier passes + conntrack lookup each); CapacityMpps is
	// its reciprocal.
	NsPerPkt     float64 `json:"ns_per_pkt"`
	CapacityMpps float64 `json:"capacity_mpps"`
	// PeakConns is the tracker's live-connection count at window end;
	// ShardImbalance the max/mean shard occupancy at that instant.
	PeakConns      int     `json:"peak_conns"`
	ShardImbalance float64 `json:"shard_imbalance"`
	// Whole-run tracker counters after the drain; the conservation
	// ledger requires Created == Expired + EarlyDrops + Evicted +
	// LiveAfterDrain at every point.
	Created        uint64 `json:"created"`
	Expired        uint64 `json:"expired"`
	EarlyDrops     uint64 `json:"early_drops"`
	Evicted        uint64 `json:"evicted"`
	TableFull      uint64 `json:"table_full"`
	LiveAfterDrain int    `json:"live_after_drain"`
	LedgerOK       bool   `json:"ledger_ok"`

	// SYN-flood arm only.
	Flood    bool    `json:"flood,omitempty"`
	FloodPPS float64 `json:"flood_pps,omitempty"`
	// BaselineMpps/FloodMpps are goodput (established + legitimate-new
	// deliveries) before and during the flood with the ladder on;
	// HeldPct is their ratio, EstHeldPct the same for established
	// traffic alone, and NoLadderHeldPct the ratio the hard-reject
	// limit manages on an identical schedule.
	BaselineMpps    float64 `json:"baseline_mpps,omitempty"`
	FloodMpps       float64 `json:"flood_mpps,omitempty"`
	HeldPct         float64 `json:"held_pct,omitempty"`
	EstHeldPct      float64 `json:"est_held_pct,omitempty"`
	NoLadderHeldPct float64 `json:"no_ladder_held_pct,omitempty"`
}

// connscaleConfig parameterizes one steady point.
type connscaleConfig struct {
	name    string
	conns   int
	shards  int
	ratePPS float64
	window  sim.Time
}

// connscalePoints returns the steady sweep for a profile, cheapest first.
// The 1M point runs at three shard counts to expose what partitioning is
// worth at that occupancy.
func connscalePoints(quick bool) []connscaleConfig {
	if quick {
		return []connscaleConfig{
			{"10k", 10_000, 8, 2e6, 10 * sim.Millisecond},
		}
	}
	return []connscaleConfig{
		{"10k", 10_000, 8, 2e6, 20 * sim.Millisecond},
		{"100k", 100_000, 8, 8e6, 40 * sim.Millisecond},
		{"1m-s1", 1_000_000, 1, 2e7, 100 * sim.Millisecond},
		{"1m", 1_000_000, 8, 2e7, 100 * sim.Millisecond},
		{"1m-s32", 1_000_000, 32, 2e7, 100 * sim.Millisecond},
	}
}

// synfloodConfig parameterizes the flood arm.
type synfloodConfig struct {
	name       string
	estConns   int
	estRate    float64 // established-connection data packets/s
	newRate    float64 // legitimate new SYNs/s (port 80)
	floodRate  float64 // attack SYNs/s (port 81)
	synTimeout sim.Time
	estTimeout sim.Time
	soft, hard int
	warm       sim.Time // settle time after each phase change
	window     sim.Time // measured window per phase
}

func connscaleFlood(quick bool) synfloodConfig {
	if quick {
		return synfloodConfig{
			name: "synflood", estConns: 10_000,
			estRate: 2e6, newRate: 1e6, floodRate: 2e6,
			synTimeout: 2 * sim.Millisecond, estTimeout: 30 * sim.Millisecond,
			soft: 13_000, hard: 14_000,
			warm: 4 * sim.Millisecond, window: 8 * sim.Millisecond,
		}
	}
	// Sized so the no-flood phase sits below the soft limit (50k
	// established + 2e6/s x 4ms = 8k embryonic = 58k < 60k) while the
	// flood pushes the unlimited equilibrium (50k + 8e6/s x 4ms = 82k)
	// past the hard limit — the ladder must engage, and the hard-reject
	// limit must visibly refuse legitimate commits.
	return synfloodConfig{
		name: "synflood", estConns: 50_000,
		estRate: 3e6, newRate: 2e6, floodRate: 6e6,
		synTimeout: 4 * sim.Millisecond, estTimeout: 60 * sim.Millisecond,
		soft: 60_000, hard: 70_000,
		warm: 8 * sim.Millisecond, window: 25 * sim.Millisecond,
	}
}

// newConnGen builds one TCP traffic class on the bed. The class is the
// source address's first octet — established traffic is 10.x, legitimate
// new 11.x, flood 12.x — so the sink can split goodput without extra state.
// conns > 0 round-robins over that many connections (established traffic);
// 0 makes every packet a fresh connection id (SYN arrivals).
func newConnGen(b *connBed, class byte, conns int, dstPort uint16, tcpFlags uint8) *trafficgen.SrcIPGen {
	frame := hdr.NewBuilder().
		Eth(hdr.MAC{0x02, 0xaa, 0, 0, 0, 2}, hdr.MAC{0x02, 0xbb, 0, 0, 0, 2}).
		IPv4H(hdr.MakeIP4(class, 0, 0, 0), hdr.MakeIP4(10, 255, 0, 1), 64).
		TCPH(1000, dstPort, 1, 0, tcpFlags).PadTo(64).Build()
	return &trafficgen.SrcIPGen{Eng: b.eng, Template: frame, Sink: b.execute,
		Class: class, Window: conns, Jitter: true}
}

// connscaleZone is the conntrack zone every connscale flow commits into.
const connscaleZone uint16 = 7

// connBed is an Execute bed with the stateful-firewall pipeline: pass 1
// recirculates through ct(commit), pass 2 matches ct_state — established
// or legitimate-new (port 80) traffic to the sink, everything else (attack
// SYNs, refused commits, invalid) to the shed port.
type connBed struct {
	*executeBed
	ct *conntrack.Table

	delivered    uint64 // sink-port packets (goodput)
	estDelivered uint64 // of delivered: established traffic (10.x)
}

func newConnBed(shards int) *connBed {
	b := &connBed{}
	maskR0 := flow.NewMaskBuilder().InPort().RecircID().Build()
	maskR1 := flow.NewMaskBuilder().RecircID().
		CtState(uint8(packet.CtNew | packet.CtEstablished | packet.CtInvalid)).TPDst().Build()
	b.executeBed = newExecuteBed(map[string]string{"ct-shards": fmt.Sprintf("%d", shards)},
		func(key flow.Key) (ofproto.Megaflow, error) {
			f := key.Unpack()
			if f.RecircID == 0 {
				return ofproto.Megaflow{Mask: maskR0, Actions: []ofproto.DPAction{
					{Type: ofproto.DPCT, Zone: connscaleZone, Commit: true, RecircID: 1}}}, nil
			}
			out := uint32(3)
			switch {
			case uint8(f.CtState)&uint8(packet.CtEstablished) != 0:
				out = 2
			case uint8(f.CtState)&uint8(packet.CtNew) != 0 && f.TPDst == 80:
				out = 2 // legitimate new connection admitted
			}
			return ofproto.Megaflow{Mask: maskR1,
				Actions: []ofproto.DPAction{{Type: ofproto.DPOutput, Port: out}}}, nil
		},
		dpif.TxPort{PortID: 2, PortName: "sink", Deliver: func(p *packet.Packet) {
			b.delivered++
			if p.Data[trafficgen.SrcIPOffset] == 10 {
				b.estDelivered++
			}
		}},
		dpif.TxPort{PortID: 3, PortName: "shed", Deliver: func(*packet.Packet) {}})
	b.ct = b.dp.Ct
	b.ct.EnableWheelExpiry(true)
	return b
}

// ledger fills the whole-run tracker counters from the datapath's stats
// and checks conservation: every created connection must be accounted for
// as expired, early-dropped, evicted, or still live.
func (b *connBed) ledger(pt *ConnscalePoint) {
	s := b.d.Stats()
	pt.Created, pt.Expired, pt.EarlyDrops = s.CtCreated, s.CtExpired, s.CtEarlyDrops
	pt.Evicted, pt.TableFull, pt.LiveAfterDrain = s.CtEvictions, s.CtTableFull, s.CtConns
	pt.LedgerOK = s.Invariants() == nil
}

// runConnscalePoint executes one steady configuration: establish N
// connections via loose pickup, measure a steady window with every packet
// recirculating through conntrack, then drain through the wheel.
func runConnscalePoint(c connscaleConfig) ConnscalePoint {
	b := newConnBed(c.shards)

	// Round-robin gap between touches of one connection; timeouts sized
	// so established connections comfortably survive the gap but the
	// drain completes in a few steps.
	gap := sim.Time(float64(c.conns) / c.ratePPS * float64(sim.Second))
	estTO := 5 * gap
	if estTO < 20*sim.Millisecond {
		estTO = 20 * sim.Millisecond
	}
	b.ct.Timeouts = conntrack.Timeouts{
		SynSent: estTO, Established: estTO, UDP: estTO, Fin: estTO,
	}

	g := newConnGen(b, 10, c.conns, 80, hdr.TCPAck)
	g.Run(c.ratePPS)

	// Fill: one full round establishes every connection (loose pickup).
	fill := gap + 2*sim.Millisecond
	b.eng.RunUntil(fill)
	b.ct.Loose = false // wrongful evictions now misroute visibly

	delivered0 := b.delivered
	w := b.measure(fill+c.window, g)
	pt := ConnscalePoint{
		Name: c.name, Conns: c.conns, Shards: c.shards,
		RatePPS:      c.ratePPS,
		WindowMs:     float64(c.window) / float64(sim.Millisecond),
		Packets:      w.packets,
		Delivered:    b.delivered - delivered0,
		NsPerPkt:     w.nsPerPkt,
		CapacityMpps: w.capacityMpps,
		PeakConns:    b.ct.Len(),
	}
	sizes := b.ct.ShardSizes(nil)
	maxSz, total := 0, 0
	for _, n := range sizes {
		total += n
		if n > maxSz {
			maxSz = n
		}
	}
	if total > 0 {
		pt.ShardImbalance = float64(maxSz) * float64(len(sizes)) / float64(total)
	}

	b.drain(estTO, b.ct.Len, g)
	b.ledger(&pt)
	return pt
}

// runSynfloodArm runs the flood schedule once — fill, no-flood window,
// flood window, drain — under either the ladder (SetZoneLimits) or the
// hard limit (SetZoneLimit). It reports goodput for both windows and the
// established-only share, and fills pt's peak and ledger.
func runSynfloodArm(c synfloodConfig, ladder bool, pt *ConnscalePoint) (baseGood, floodGood, baseEst, floodEst uint64) {
	b := newConnBed(8)
	b.ct.Timeouts = conntrack.Timeouts{
		SynSent: c.synTimeout, Established: c.estTimeout,
		UDP: c.estTimeout, Fin: c.synTimeout,
	}

	est := newConnGen(b, 10, c.estConns, 80, hdr.TCPAck)
	est.Run(c.estRate)
	fill := sim.Time(float64(c.estConns)/c.estRate*float64(sim.Second)) + 2*sim.Millisecond
	b.eng.RunUntil(fill)
	b.ct.Loose = false
	if ladder {
		b.ct.SetZoneLimits(connscaleZone, c.soft, c.hard)
	} else {
		b.ct.SetZoneLimit(connscaleZone, c.hard)
	}

	// Phase A: legitimate connection churn, no flood.
	legit := newConnGen(b, 11, 0, 80, hdr.TCPSyn)
	legit.Run(c.newRate)
	b.eng.RunUntil(fill + c.warm)
	d0, e0 := b.delivered, b.estDelivered
	b.eng.RunUntil(fill + c.warm + c.window)
	baseGood, baseEst = b.delivered-d0, b.estDelivered-e0

	// Phase B: the SYN flood joins.
	floodStart := fill + c.warm + c.window
	flood := newConnGen(b, 12, 0, 81, hdr.TCPSyn)
	flood.Run(c.floodRate)
	b.eng.RunUntil(floodStart + c.warm)
	d0, e0 = b.delivered, b.estDelivered
	b.eng.RunUntil(floodStart + c.warm + c.window)
	floodGood, floodEst = b.delivered-d0, b.estDelivered-e0

	pt.PeakConns = b.ct.Len()
	b.drain(c.estTimeout, b.ct.Len, est, legit, flood)
	b.ledger(pt)
	return baseGood, floodGood, baseEst, floodEst
}

// runSynflood measures the flood point: the ladder arm provides the
// headline held-goodput numbers and counters; the hard-limit arm provides
// the comparison ratio.
func runSynflood(c synfloodConfig) ConnscalePoint {
	winS := float64(c.window) / float64(sim.Second)
	pt := ConnscalePoint{
		Name: c.name, Conns: c.estConns, Shards: 8,
		RatePPS:  c.estRate + c.newRate,
		WindowMs: float64(c.window) / float64(sim.Millisecond),
		Flood:    true,
		FloodPPS: c.floodRate,
	}
	baseGood, floodGood, baseEst, floodEst := runSynfloodArm(c, true, &pt)
	pt.Packets = baseGood + floodGood // goodput packets across both windows
	pt.Delivered = pt.Packets
	pt.BaselineMpps = float64(baseGood) / winS / 1e6
	pt.FloodMpps = float64(floodGood) / winS / 1e6
	if baseGood > 0 {
		pt.HeldPct = 100 * float64(floodGood) / float64(baseGood)
	}
	if baseEst > 0 {
		pt.EstHeldPct = 100 * float64(floodEst) / float64(baseEst)
	}

	var hard ConnscalePoint
	if baseGood, floodGood, _, _ := runSynfloodArm(c, false, &hard); baseGood > 0 {
		pt.NoLadderHeldPct = 100 * float64(floodGood) / float64(baseGood)
	}
	pt.LedgerOK = pt.LedgerOK && hard.LedgerOK
	return pt
}

func init() {
	registerSweep(sweep[ConnscalePoint]{
		id:          "connscale",
		title:       "million-connection conntrack: capacity vs table size + SYN-flood degradation",
		reportTitle: "conntrack scaling sweep (concurrent connections x shards, wheel expiry)",
		// The steady points, then the flood arm.
		points: func(p Profile) (pts []sweepPoint[ConnscalePoint]) {
			for _, c := range connscalePoints(p.quick()) {
				pts = append(pts, sweepPoint[ConnscalePoint]{c.name, func() ConnscalePoint { return runConnscalePoint(c) }})
			}
			fc := connscaleFlood(p.quick())
			return append(pts, sweepPoint[ConnscalePoint]{fc.name, func() ConnscalePoint { return runSynflood(fc) }})
		},
		report: func(rep *Report, pt ConnscalePoint) {
			if pt.Flood {
				rep.Add(pt.Name+": goodput held under flood (ladder)", pt.HeldPct, 0, "%")
				rep.Add(pt.Name+": established goodput held", pt.EstHeldPct, 0, "%")
				rep.Add(pt.Name+": goodput held (legacy hard limit)", pt.NoLadderHeldPct, 0, "%")
				rep.Add(pt.Name+": baseline goodput", pt.BaselineMpps, 0, "Mpps")
			} else {
				rep.Add(pt.Name+" conns: capacity per core", pt.CapacityMpps, 0, "Mpps")
				rep.Add(pt.Name+" conns: busy time per packet", pt.NsPerPkt, 0, "ns/pkt")
				rep.Add(pt.Name+" conns: shard imbalance", pt.ShardImbalance, 0, "x mean")
			}
			rep.AddNote("%s: created %d = expired %d + early-drop %d + evicted %d + live %d (ledger %s); table-full %d, peak %d conns",
				pt.Name, pt.Created, pt.Expired, pt.EarlyDrops, pt.Evicted,
				pt.LiveAfterDrain, ledgerWord(pt.LedgerOK), pt.TableFull, pt.PeakConns)
		},
	})
}
