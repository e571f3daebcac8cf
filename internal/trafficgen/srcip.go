package trafficgen

import (
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

// SrcIPOffset is where the IPv4 source address sits in an Ethernet frame.
const SrcIPOffset = hdr.EthernetSize + 12

// SrcIPGen drives the scale scenarios' traffic: one prebuilt frame whose
// source address is byte-patched to Class.id[23:0] for the next flow id,
// copied from a pool and handed to Sink — no per-packet allocation, and
// deterministic. The first octet names the traffic class, so a sink can
// split goodput by class without extra state.
//
// Set the exported fields, then call Run once.
type SrcIPGen struct {
	Eng *sim.Engine
	// Template is the frame to patch; the generator owns it from Run on.
	Template []byte
	// Sink receives every generated packet (a NIC's Receive, or a closure
	// that stamps InPort and calls Dpif.Execute).
	Sink func(*packet.Packet)

	// Class is the source address's first octet.
	Class byte
	// Base offsets every id. A caller may advance it while the generator
	// runs: the active window [Base, Base+Window) then slides, retiring the
	// oldest flow and exposing a new one per step.
	Base int
	// Window is how many ids the cursor cycles over; 0 never wraps, so
	// every packet carries a fresh id (connection arrivals).
	Window int
	// Jitter spreads inter-arrival times +-25% with a per-class LCG.
	// Perfectly periodic sources phase-lock with an equally periodic expiry
	// stream (every timeout is arrival + an exact constant), which would
	// let one traffic class deterministically absorb every table-full
	// refusal.
	Jitter bool
	// Until, when non-zero, ends generation at that virtual instant.
	Until sim.Time

	// Sent counts generated packets.
	Sent uint64

	pool    *packet.Pool
	cursor  int
	rng     uint64
	stopped bool
}

// emit sends one packet for the next id.
func (g *SrcIPGen) emit() {
	id := g.Base + g.cursor
	g.cursor++
	if g.Window > 0 && g.cursor >= g.Window {
		g.cursor = 0
	}
	src := g.Template[SrcIPOffset : SrcIPOffset+4]
	src[0], src[1], src[2], src[3] = g.Class, byte(id>>16), byte(id>>8), byte(id)
	g.Sent++
	g.Sink(g.pool.GetCopy(g.Template))
}

// Run self-schedules arrivals at ratePPS, starting now, until Stop or Until.
func (g *SrcIPGen) Run(ratePPS float64) {
	g.pool = packet.NewPool(64, len(g.Template), true)
	g.rng = uint64(g.Class)*0x9e3779b97f4a7c15 + 1
	interval := sim.Time(float64(sim.Second) / ratePPS)
	if interval <= 0 {
		interval = 1
	}
	next := g.Eng.Now()
	var tick func()
	tick = func() {
		if g.stopped || (g.Until > 0 && g.Eng.Now() >= g.Until) {
			return
		}
		g.emit()
		if g.Jitter {
			g.rng = g.rng*6364136223846793005 + 1442695040888963407
			frac := float64(g.rng>>11) / (1 << 53)
			next += sim.Time(float64(interval) * (0.75 + 0.5*frac))
		} else {
			next += interval
		}
		g.Eng.ScheduleAt(next, tick)
	}
	g.Eng.ScheduleAt(next, tick)
}

// Stop ends generation; the one arrival already scheduled is a no-op.
func (g *SrcIPGen) Stop() { g.stopped = true }

// Stopped reports whether Stop was called.
func (g *SrcIPGen) Stopped() bool { return g.stopped }
