package experiments

// The scale sweeps (churnscale, connscale, offload) share every measuring
// step: one Execute-driven bed, one measured window, one drain and one
// result shell. A sweep file states only its physics — its point type (the
// JSON schema), its configs, its upcall, its traffic and its report rows.

import (
	"slices"

	"ovsxdp/internal/api"
	"ovsxdp/internal/core"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/kit"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/trafficgen"
)

// executeBed is a netdev datapath with no NIC: generated packets enter the
// fast path through Execute as if they had arrived on port 1, and leave
// through transmit ports that are plain delivery functions.
type executeBed struct {
	eng *sim.Engine
	d   dpif.Dpif
	dp  *core.Datapath
}

// newExecuteBed opens the datapath with other applied at open, adds the
// transmit ports and installs the sweep's upcall.
func newExecuteBed(other map[string]string, upcall dpif.UpcallFunc, ports ...dpif.TxPort) *executeBed {
	eng := sim.NewEngine(1)
	d := kit.Must(dpif.Open("netdev", dpif.Config{Eng: eng, Pipeline: ofproto.NewPipeline(), Other: other}))
	for _, tp := range ports {
		if err := d.PortAdd(tp); err != nil {
			panic(err)
		}
	}
	d.SetUpcall(upcall)
	return &executeBed{eng: eng, d: d, dp: d.(*dpif.Netdev).Datapath()}
}

// discardSink is the transmit port a sweep that counts nothing at egress
// forwards to.
var discardSink = dpif.TxPort{PortID: 2, PortName: "sink", Deliver: func(*packet.Packet) {}}

// execute feeds a generated packet into the fast path as if it had arrived
// on port 1, a generator's sink.
func (b *executeBed) execute(p *packet.Packet) {
	p.InPort = 1
	b.d.Execute(p)
}

// measuredWindow is what one measured stretch of virtual time saw.
type measuredWindow struct {
	packets       uint64 // sent by the measured generators
	before, after dpif.Stats
	events        uint64 // engine events executed
	// nsPerPkt is the PMD's busy nanoseconds per packet; capacityMpps its
	// reciprocal, what one core sustains.
	nsPerPkt, capacityMpps float64
}

// measure runs the engine to end with every CPU's accounting reset at the
// start, so a CPU's busy total afterwards is its busy time in the window.
func (b *executeBed) measure(end sim.Time, gens ...*trafficgen.SrcIPGen) measuredWindow {
	for _, cpu := range b.eng.CPUs() {
		cpu.ResetAccounting()
	}
	sent := func() (n uint64) {
		for _, g := range gens {
			n += g.Sent
		}
		return n
	}
	sent0, events0 := sent(), b.eng.Executed()
	w := measuredWindow{before: b.d.Stats()}
	b.eng.RunUntil(end)
	w.after = b.d.Stats()
	w.packets, w.events = sent()-sent0, b.eng.Executed()-events0
	if w.packets > 0 {
		w.nsPerPkt = float64(b.dp.PMDs()[0].CPU.BusyTotal()) / float64(w.packets)
		w.capacityMpps = 1e3 / w.nsPerPkt
	}
	return w
}

// drain stops the generators and steps virtual time by step until live
// reads zero, at most eight steps: with no traffic, every entry's next
// expiry deadline removes it.
func (b *executeBed) drain(step sim.Time, live func() int, gens ...*trafficgen.SrcIPGen) {
	for _, g := range gens {
		g.Stop()
	}
	now := b.eng.Now()
	for i := 0; i < 8 && live() > 0; i++ {
		now += step
		b.eng.RunUntil(now)
	}
}

// flows is the megaflow table's occupancy, what a revalidated drain empties.
func (b *executeBed) flows() int { return b.d.Stats().Flows }

// sweepResult is a sweep's JSON result, the BENCH_<scenario>.json schema.
type sweepResult[P any] struct {
	api.Envelope
	Points []P `json:"points"`
}

// sweepPoint is one named point of a sweep.
type sweepPoint[P any] struct {
	name string
	run  func() P
}

// sweep is a scale scenario: its points and how a point reports.
type sweep[P any] struct {
	id, title, reportTitle string
	// points lists a profile's points, cheapest first.
	points func(p Profile) []sweepPoint[P]
	// relate, when set, fills in what a point reports relative to the
	// other points measured in the same run.
	relate func(pts []P)
	// report adds one point's rows and its ledger note.
	report func(rep *Report, pt P)
}

// registerSweep registers s as a scenario whose points can be selected and
// whose result is a *sweepResult[P].
func registerSweep[P any](s sweep[P]) {
	registerScenario(Scenario{
		ID:    s.id,
		Title: s.title,
		Points: func(p Profile) []string {
			var names []string
			for _, pt := range s.points(p) {
				names = append(names, pt.name)
			}
			return names
		},
		Run: func(p Profile, points []string) (*Report, any) {
			res := &sweepResult[P]{Envelope: api.NewEnvelope(s.id, 1, p.Name)}
			for _, pt := range s.points(p) {
				if len(points) == 0 || slices.Contains(points, pt.name) {
					res.Points = append(res.Points, pt.run())
				}
			}
			if s.relate != nil {
				s.relate(res.Points)
			}
			rep := &Report{ID: s.id, Title: s.reportTitle}
			for _, pt := range res.Points {
				s.report(rep, pt)
			}
			return rep, res
		},
	})
}
