// Package trafficgen implements the paper's three workload generators:
//
//   - UDPGen, the TRex analog (Section 5.2): constant-rate UDP streams of
//     configurable frame size over 1..N flows, used with measure's
//     lossless-rate search;
//   - Bulk, the iperf analog (Section 5.1): a windowed bulk-TCP transfer
//     with MSS segmentation, optional TSO-sized sends, and ack clocking,
//     driven through real datapath components;
//   - RR, the netperf TCP_RR analog (Section 5.3): single-transaction
//     ping-pong measuring the latency distribution.
//
// SrcIPGen is not from the paper: it is the open-loop source the scale
// scenarios (churnscale, connscale, offload, soak) share.
package trafficgen

import (
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

// UDPGen generates a constant-rate stream of UDP frames across Flows
// distinct 5-tuples (round-robin with per-flow deterministic addresses,
// matching the paper's "random source and destination IPs out of 1,000
// possibilities").
type UDPGen struct {
	Eng       *sim.Engine
	Flows     int
	FrameSize int // on-wire frame size including the 4-byte FCS the paper quotes
	SrcMAC    hdr.MAC
	DstMAC    hdr.MAC
	// Sink receives generated packets (typically nic.Receive).
	Sink func(*packet.Packet)

	// Sent counts generated packets.
	Sent uint64

	templates [][]byte
	idx       int

	// pool recycles packet metadata and buffers: frames released by their
	// terminal consumer (a NIC drop, an XSK copy, a test sink) come back
	// here, so steady-state generation allocates nothing. Overflow falls
	// back to the heap gracefully (pool.Allocs counts it).
	pool *packet.Pool
}

// genPoolSize bounds in-flight generated frames; NIC rings and XSK rings
// together hold a few thousand at most. The pool grows to the frames
// actually in flight, so an idle generator holds none.
const genPoolSize = 4096

// NewUDPGen prebuilds per-flow frame templates.
func NewUDPGen(eng *sim.Engine, flows, frameSize int, sink func(*packet.Packet)) *UDPGen {
	if flows <= 0 {
		flows = 1
	}
	g := &UDPGen{Eng: eng, Flows: flows, FrameSize: frameSize,
		SrcMAC: hdr.MAC{0x02, 0xaa, 0, 0, 0, 1},
		DstMAC: hdr.MAC{0x02, 0xbb, 0, 0, 0, 1},
		Sink:   sink}
	rnd := eng.Rand().Fork()
	for i := 0; i < flows; i++ {
		src := hdr.MakeIP4(10, 0, byte(rnd.Intn(250)), byte(1+rnd.Intn(250)))
		dst := hdr.MakeIP4(10, 1, byte(rnd.Intn(250)), byte(1+rnd.Intn(250)))
		sport := uint16(1024 + rnd.Intn(40000))
		dport := uint16(1024 + rnd.Intn(40000))
		// The builder pads to frameSize-4 host-visible bytes (the FCS
		// is on the wire only); payload fills the rest.
		payload := frameSize - 4 - hdr.EthernetSize - hdr.IPv4MinSize - hdr.UDPSize
		if payload < 0 {
			payload = 0
		}
		frame := hdr.NewBuilder().Eth(g.SrcMAC, g.DstMAC).
			IPv4H(src, dst, 64).UDPH(sport, dport).
			PayloadLen(payload).Build()
		g.templates = append(g.templates, frame)
	}
	bufSize := frameSize
	if bufSize < 64 {
		bufSize = 64
	}
	g.pool = packet.NewPool(genPoolSize, bufSize, true)
	return g
}

// Next builds the next packet (round-robin across flows).
func (g *UDPGen) Next() *packet.Packet {
	tpl := g.templates[g.idx%len(g.templates)]
	g.idx++
	return g.pool.GetCopy(tpl)
}

// Run generates arrivals at ratePPS for the duration, starting now. The
// generator self-schedules one event at a time so the engine's event heap
// stays small even at tens of millions of packets per second.
func (g *UDPGen) Run(ratePPS float64, duration sim.Time) {
	if ratePPS <= 0 {
		return
	}
	interval := sim.Time(float64(sim.Second) / ratePPS)
	if interval <= 0 {
		interval = 1
	}
	start := g.Eng.Now()
	end := start + duration
	var tick func()
	next := start
	tick = func() {
		g.Sent++
		g.Sink(g.Next())
		next += interval
		if next < end {
			g.Eng.ScheduleAt(next, tick)
		}
	}
	g.Eng.ScheduleAt(next, tick)
}
