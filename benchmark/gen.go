package main

import (
	"encoding/binary"

	"ovsxdp/internal/dpif"
	"ovsxdp/internal/nicsim"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

// Every workload sends 64-byte frames (60 host-visible bytes; the FCS is on
// the wire only), the size at which per-packet cost dominates.
const (
	frameLen  = 60
	offIPCsum = hdr.EthernetSize + 10
	offIPSrc  = hdr.EthernetSize + 12
	offIPDst  = hdr.EthernetSize + 16
	offL4     = hdr.EthernetSize + hdr.IPv4MinSize
	// UDP frames carry the virtual send time and a sequence number in the
	// payload; both survive the AF_XDP copies and the kernel path, so the
	// sink can time and identify every frame without side state.
	offStamp = offL4 + hdr.UDPSize
	offSeq   = offStamp + 8
)

var (
	genSrcMAC = hdr.MAC{0x02, 0xaa, 0, 0, 0, 1}
	genDstMAC = hdr.MAC{0x02, 0xbb, 0, 0, 0, 1}
)

// pacer is the open-loop arrival process shared by both generators: one
// rearmable engine timer calling emit at a fixed mean rate. Inter-arrival
// gaps are uniform in [interval/2, 3*interval/2] from the benchmark seed —
// a perfectly periodic source phase-locks with the equally periodic poll
// loop and expiry wheels, so batch sizes and expiry cohorts would be an
// artefact of the phase instead of the load.
type pacer struct {
	eng    *sim.Engine
	timer  *sim.Timer
	rng    *sim.Rand
	half   sim.Time
	spread uint64
	next   sim.Time
	emit   func()
}

func newPacer(eng *sim.Engine, ratePPS float64, seed uint64, emit func()) *pacer {
	interval := sim.Time(float64(sim.Second) / ratePPS)
	if interval < 2 {
		interval = 2
	}
	p := &pacer{eng: eng, rng: sim.NewRand(seed), half: interval / 2,
		spread: uint64(interval) + 1, emit: emit}
	p.timer = eng.NewTimer(p.tick)
	return p
}

func (p *pacer) start() {
	p.next = p.eng.Now()
	p.timer.ScheduleAt(p.next)
}

func (p *pacer) stop() { p.timer.Stop() }

func (p *pacer) tick() {
	p.emit()
	p.next += p.half + sim.Time(p.rng.Uint64()%p.spread)
	p.timer.ScheduleAt(p.next)
}

// tuple is one flow identity; ipCsum is the IPv4 header checksum of the
// template frame carrying it, precomputed so patched frames stay valid.
type tuple struct {
	src, dst     uint32
	sport, dport uint16
	ipCsum       uint16
}

// udpTemplate builds the 60-byte UDP frame every NIC-driven workload
// patches. The UDP checksum is zero ("not computed", legal over IPv4)
// because the payload stamp changes per packet.
func udpTemplate() []byte {
	f := hdr.NewBuilder().Eth(genSrcMAC, genDstMAC).
		IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 1, 0, 1), 64).
		UDPH(1024, 1024).PadTo(frameLen).Build()
	f[offL4+6], f[offL4+7] = 0, 0
	return f
}

// patch writes t's addresses, ports and header checksum into frame.
func (t *tuple) patch(frame []byte) {
	binary.BigEndian.PutUint32(frame[offIPSrc:], t.src)
	binary.BigEndian.PutUint32(frame[offIPDst:], t.dst)
	binary.BigEndian.PutUint16(frame[offL4:], t.sport)
	binary.BigEndian.PutUint16(frame[offL4+2:], t.dport)
	binary.BigEndian.PutUint16(frame[offIPCsum:], t.ipCsum)
}

// matches reports whether frame still carries t's identity.
func (t *tuple) matches(frame []byte) bool {
	return binary.BigEndian.Uint32(frame[offIPSrc:]) == t.src &&
		binary.BigEndian.Uint32(frame[offIPDst:]) == t.dst &&
		binary.BigEndian.Uint16(frame[offL4:]) == t.sport &&
		binary.BigEndian.Uint16(frame[offL4+2:]) == t.dport
}

// seededFlows draws n flow identities from seed in the shape the paper's
// TRex profile uses (sources 10.0.x.y, destinations 10.1.x.y with x below
// 250, ports above 1024), so the same rule sets apply for every seed.
func seededFlows(seed uint64, n int) []tuple {
	rnd := sim.NewRand(seed ^ 0xf10f5eed)
	tpl := udpTemplate()
	flows := make([]tuple, n)
	for i := range flows {
		t := &flows[i]
		t.src = uint32(hdr.MakeIP4(10, 0, byte(rnd.Intn(250)), byte(1+rnd.Intn(250))))
		t.dst = uint32(hdr.MakeIP4(10, 1, byte(rnd.Intn(250)), byte(1+rnd.Intn(250))))
		t.sport = uint16(1024 + rnd.Intn(40000))
		t.dport = uint16(1024 + rnd.Intn(40000))
		t.patch(tpl)
		tpl[offIPCsum], tpl[offIPCsum+1] = 0, 0
		t.ipCsum = hdr.Checksum(tpl[hdr.EthernetSize:offL4])
	}
	return flows
}

// genStats is what both generators count. deliveredTimed and lat cover the
// timed phase only.
type genStats struct {
	sent, delivered, deliveredTimed, corrupt uint64
	lat                                      *histogram
}

// generator is what a bed needs from its traffic source, whichever way the
// frames enter the system.
type generator interface {
	start()
	stop()
	// beginTimed starts the timed phase: deliveries and latencies are
	// accounted from here on.
	beginTimed()
	stats() *genStats
	// flowCount is the size of the steady-state working set; frameAt
	// writes the identity of its i-th flow into the generator's template
	// and returns it (valid until the next call).
	flowCount() int
	frameAt(i int) []byte
}

// nicGen offers stamped UDP frames round-robin over a seeded flow set to a
// NIC, and owns the sink on the far NIC that times and checks them.
type nicGen struct {
	*pacer
	genStats
	eng   *sim.Engine
	nic   *nicsim.NIC
	flows []tuple
	frame []byte
	pool  *packet.Pool
	tr    *tracer

	emitN, sinkN uint32 // span sampling counters
	// Frames stamped at or after timedFrom belong to the timed phase.
	// RunUntil is inclusive, so a frame emitted at the very instant the
	// warm-up ends went out before beginTimed and belongs to the warm-up.
	timedFrom sim.Time
}

// genPoolSize bounds frames in flight between generator and first copy;
// NIC rings hold at most a few thousand.
const genPoolSize = 4096

func newNICGen(eng *sim.Engine, in, out *nicsim.NIC, flows []tuple, ratePPS float64, seed uint64, tr *tracer) *nicGen {
	g := &nicGen{eng: eng, nic: in, flows: flows, frame: udpTemplate(),
		pool: packet.NewPool(genPoolSize, 64, true), tr: tr,
		genStats: genStats{lat: newHistogram()}, timedFrom: 1 << 62}
	g.pacer = newPacer(eng, ratePPS, seed, g.emit)
	out.ConnectWire(g.sink)
	return g
}

func (g *nicGen) stats() *genStats { return &g.genStats }
func (g *nicGen) beginTimed()      { g.timedFrom = g.eng.Now() + 1 }
func (g *nicGen) flowCount() int   { return len(g.flows) }

func (g *nicGen) frameAt(i int) []byte {
	g.flows[i%len(g.flows)].patch(g.frame)
	return g.frame
}

func (g *nicGen) emit() {
	sample := g.tr.sample(&g.emitN)
	var t0, t1 int64
	if sample {
		t0 = nanotime()
	}
	g.frameAt(int(g.sent))
	binary.BigEndian.PutUint64(g.frame[offStamp:], uint64(g.eng.Now()))
	binary.BigEndian.PutUint32(g.frame[offSeq:], uint32(g.sent))
	p := g.pool.GetCopy(g.frame)
	g.sent++
	if sample {
		t1 = nanotime()
	}
	g.nic.Receive(p)
	if sample {
		t2 := nanotime()
		g.tr.add(spanGenEmit, t1-t0)
		g.tr.add(spanIngress, t2-t1)
	}
}

func (g *nicGen) sink(p *packet.Packet) {
	sample := g.tr.sample(&g.sinkN)
	var t0 int64
	if sample {
		t0 = nanotime()
	}
	d := p.Data
	if len(d) != frameLen {
		g.corrupt++
	} else {
		seq := binary.BigEndian.Uint32(d[offSeq:])
		if !g.flows[uint64(seq)%uint64(len(g.flows))].matches(d) {
			g.corrupt++
		}
		sent := sim.Time(binary.BigEndian.Uint64(d[offStamp:]))
		if sent >= g.timedFrom {
			g.deliveredTimed++
			g.lat.record(int64(g.eng.Now() - sent))
		}
	}
	g.delivered++
	p.Release()
	if sample {
		g.tr.add(spanSink, nanotime()-t0)
	}
}

// windowGen drives an Execute-driven datapath with round-robin traffic over
// a sliding window of flow ids [base, base+size): base advances at a fixed
// rate, so every advance retires the oldest id (its traffic stops) and
// exposes a new one (its first packet misses). The id is scrambled into the
// source address by a seeded bijection on 24 bits; id parity picks the
// destination port, which is what gives churn its two megaflow masks.
type windowGen struct {
	*pacer
	genStats
	eng   *sim.Engine
	dp    dpif.Dpif
	cpu   *sim.CPU
	frame []byte
	pool  *packet.Pool
	tr    *tracer

	size       int
	advanceGap sim.Time // virtual time per window advance
	started    sim.Time
	cursor     int
	mult, off  uint32
	dports     [2]uint16

	emitN, sinkN uint32 // span sampling counters
	lastSrc      uint32
	timed        bool
}

// newWindowGen wires the generator to dp: port 2 is its checking sink. cpu
// is the thread Execute charges, read around every call for the per-packet
// service time.
func newWindowGen(eng *sim.Engine, dp dpif.Dpif, cpu *sim.CPU, frame []byte, dports [2]uint16,
	size int, ratePPS, advancePerS float64, seed uint64, tr *tracer) *windowGen {
	rnd := sim.NewRand(seed ^ 0x77696e64)
	g := &windowGen{eng: eng, dp: dp, cpu: cpu, frame: frame, dports: dports,
		pool: packet.NewPool(64, 64, true), tr: tr, size: size,
		advanceGap: sim.Time(float64(sim.Second) / advancePerS),
		mult:       rnd.Uint32() | 1, off: rnd.Uint32(), genStats: genStats{lat: newHistogram()}}
	g.pacer = newPacer(eng, ratePPS, seed, g.emit)
	return g
}

// srcIP maps a flow id to its source address, 10.x.y.z.
func (g *windowGen) srcIP(id int) uint32 {
	return 10<<24 | (uint32(id)*g.mult+g.off)&0xffffff
}

func (g *windowGen) start() {
	g.started = g.eng.Now()
	g.pacer.start()
}

// base is the oldest live flow id at the current virtual time.
func (g *windowGen) base() int { return int((g.eng.Now() - g.started) / g.advanceGap) }

func (g *windowGen) stats() *genStats { return &g.genStats }
func (g *windowGen) beginTimed()      { g.timed = true }
func (g *windowGen) flowCount() int   { return g.size }

// frameAt writes flow id's identity into the template.
func (g *windowGen) frameAt(id int) []byte {
	g.lastSrc = g.srcIP(id)
	binary.BigEndian.PutUint32(g.frame[offIPSrc:], g.lastSrc)
	binary.BigEndian.PutUint16(g.frame[offL4+2:], g.dports[id&1])
	return g.frame
}

func (g *windowGen) emit() {
	sample := g.tr.sample(&g.emitN)
	var t0, t1 int64
	if sample {
		t0 = nanotime()
	}
	id := g.base() + g.cursor
	if g.cursor++; g.cursor >= g.size {
		g.cursor = 0
	}
	p := g.pool.GetCopy(g.frameAt(id))
	p.InPort = 1
	g.sent++
	if sample {
		t1 = nanotime()
	}
	busy := g.cpu.BusyTotal()
	g.dp.Execute(p)
	if g.timed {
		g.lat.record(int64(g.cpu.BusyTotal() - busy))
	}
	if sample {
		t2 := nanotime()
		g.tr.add(spanGenEmit, t1-t0)
		g.tr.add(spanIngress, t2-t1)
	}
}

// sink is the datapath's output port: Execute delivers synchronously, so the
// frame arriving must be the one just sent.
func (g *windowGen) sink(p *packet.Packet) {
	sample := g.tr.sample(&g.sinkN)
	var t0 int64
	if sample {
		t0 = nanotime()
	}
	if len(p.Data) != frameLen || binary.BigEndian.Uint32(p.Data[offIPSrc:]) != g.lastSrc {
		g.corrupt++
	}
	g.delivered++
	if g.timed {
		g.deliveredTimed++
	}
	p.Release()
	if sample {
		g.tr.add(spanSink, nanotime()-t0)
	}
}
