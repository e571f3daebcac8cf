// Package fastpath is the packet pass every datapath runs, written once:
// package core runs it once per PMD thread, package kernelsim once per
// softirq context. What differs between them is a cost Row and four Provider
// calls (receive, look up, install, transmit). The pass keeps OVS's action
// semantics: an output that is not the list's last action sends a copy, and
// a list that runs out without handing the packet on (an output, ct or
// tnl_pop) is an implicit drop.
package fastpath

import (
	"ovsxdp/internal/conntrack"
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/perf"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/tunnel"
	"ovsxdp/internal/upcall"
)

// maxRecircDepth bounds recirculation (ct and tnl_pop passes) per packet.
const maxRecircDepth = 8

// Row is a provider's cost data: the CPU category its pass charges, what an
// output (charged by Transmit once the port is found) and a header rewrite
// (zero charges nothing) cost, and, when set, how every cost charged through
// the row is scaled (the eBPF sandbox penalty and SMT contention on the
// kernel paths; the inline upcall is never scaled).
type Row struct {
	Cat             sim.Category
	Output, Rewrite sim.Time
	Scale           func(sim.Time) sim.Time
}

// Provider is what one datapath adds to the pass. Every call gets the
// thread the pass runs on and the CPU it charges.
type Provider interface {
	// Receive charges the frame's arrival and reports whether the pass goes
	// on; false means the provider consumed the frame (NIC hardware
	// forwarded it).
	Receive(t *Thread, cpu *sim.CPU, p *packet.Packet, depth int) bool
	// Lookup resolves the extracted key to the actions of the megaflow
	// covering it, charging the probes and counting the hit; false is a
	// miss.
	Lookup(t *Thread, cpu *sim.CPU, key *flow.Key, depth int) ([]ofproto.DPAction, bool)
	// Install installs the megaflow an inline upcall translated for key.
	Install(t *Thread, key *flow.Key, mf ofproto.Megaflow)
	// Transmit sends p out port, charging the row's Output cost, or reports
	// false, with nothing charged and p untouched, when there is no such
	// port.
	Transmit(t *Thread, cpu *sim.CPU, port uint32, p *packet.Packet) bool
}

// Thread is the per-thread state of the pass: a PMD's, or a kernel
// datapath's one softirq context.
type Thread struct {
	// Perf is the thread's performance-counter block.
	Perf *perf.Stats
	// Slow is the thread's slow path, raised on a miss.
	Slow *upcall.Queue
	// Trace, while non-nil, is the lifecycle record of the depth-0 packet
	// in process.
	Trace *perf.TraceRecord
	// key is the key of the pass in progress. It lives here, not on the
	// pass's stack, because the provider calls it is handed through would
	// move a stack key to the heap on every packet. A recirculated pass
	// overwrites it only once its parent is done with it.
	key flow.Key
}

// Resolved notes the level that resolved the traced packet; only the first
// sticks (recirculations re-resolve).
func (t *Thread) Resolved(r perf.Result) {
	if t.Trace != nil && t.Trace.Result == perf.ResultNone {
		t.Trace.Result = r
	}
}

// Datapath is the state the pass shares across a datapath's threads:
// what actions reach (the pipeline's meters, conntrack, the tunnel
// encapsulator), the cost row, the slow-path handler, and the counters.
type Datapath struct {
	Eng      *sim.Engine
	Pipeline *ofproto.Pipeline
	Ct       *conntrack.Table
	// Encapper encapsulates a tunnel push. Without one the push is charged
	// and the frame leaves as it is, for the port to encapsulate.
	Encapper *tunnel.Encapper
	Row      Row
	// UpcallQueueCap bounds the slow path's queues (upcall-queue-cap);
	// zero keeps the upcall inline on the thread that missed.
	UpcallQueueCap int

	// translate, when set, replaces Pipeline.Translate as the slow-path
	// handler (dpif upcall registration).
	translate func(flow.Key) (ofproto.Megaflow, error)
	// handler is the upcall-handler thread's CPU, created lazily.
	handler *sim.CPU

	// Stats. The embedded block is the slow path's share: UpcallErrors,
	// UpcallRetries and Drops. Processed counts passes, recirculations
	// included; Upcalls, misses handed to the slow path; MalformedDrops,
	// frames that missed and failed to parse (the kernel flow extractor's
	// EINVAL), split from policy drops.
	upcall.Counters
	Processed, Upcalls, Recirculations, MalformedDrops uint64
}

// SetUpcall registers the slow-path handler consulted on misses in place of
// the pipeline's translator (dpif upcall registration).
func (d *Datapath) SetUpcall(fn func(flow.Key) (ofproto.Megaflow, error)) { d.translate = fn }

// Translate resolves a missed key through the registered upcall handler,
// defaulting to the pipeline.
func (d *Datapath) Translate(key *flow.Key) (ofproto.Megaflow, error) {
	if d.translate != nil {
		return d.translate(*key)
	}
	return d.Pipeline.Translate(*key)
}

// HandlerCPU lazily creates the upcall-handler thread.
func (d *Datapath) HandlerCPU() *sim.CPU {
	if d.handler == nil {
		d.handler = d.Eng.NewCPU("upcall-handler")
	}
	return d.handler
}

// Charge consumes c, scaled by the row, on cpu in the row's category and
// attributes it to stage st of t — the one point that keeps counters and
// virtual time in lockstep.
func (d *Datapath) Charge(t *Thread, cpu *sim.CPU, st perf.Stage, c sim.Time) {
	if d.Row.Scale != nil {
		c = d.Row.Scale(c)
	}
	cpu.Consume(d.Row.Cat, c)
	t.Perf.Add(st, c)
}

// drop counts a packet lost in the datapath and hands it back.
func (d *Datapath) drop(p *packet.Packet) {
	d.Drops++
	p.Release()
}

// Process runs one packet through the pass on thread t, charging cpu. count
// is false for a packet reinjected after a queued upcall resolved: it was
// counted, and traced, when it was admitted.
func (d *Datapath) Process(pv Provider, t *Thread, cpu *sim.CPU, p *packet.Packet, depth int, count bool) {
	if depth > maxRecircDepth {
		d.drop(p)
		return
	}
	if count {
		d.Processed++
		if depth == 0 {
			t.Perf.Packets++
			if tr := t.Perf.Tracer(); tr != nil {
				rec := perf.TraceRecord{InPort: p.InPort, Start: max(cpu.FreeAt(), d.Eng.Now())}
				t.Trace = &rec
				defer func() {
					rec.End = cpu.FreeAt()
					tr.Add(rec)
					t.Trace = nil
				}()
			}
		}
	}
	if !pv.Receive(t, cpu, p, depth) {
		return
	}
	key := &t.key
	flow.ExtractInto(p, key)
	actions, ok := pv.Lookup(t, cpu, key, depth)
	if !ok {
		// A frame that does not parse is split from the misses before any
		// slow-path resource is spent (the kernel flow extractor returns
		// EINVAL, not an upcall).
		if flow.Malformed(p) {
			d.MalformedDrops++
			p.Release()
			return
		}
		d.Upcalls++
		t.Resolved(perf.ResultUpcall)
		mf, ok := t.Slow.Miss(key, p, cpu)
		if !ok {
			return
		}
		pv.Install(t, key, mf)
		actions = mf.Actions
	}
	d.execute(pv, t, cpu, p, actions, depth)
}

// execute runs a compiled datapath action list.
func (d *Datapath) execute(pv Provider, t *Thread, cpu *sim.CPU, p *packet.Packet, actions []ofproto.DPAction, depth int) {
	for i := range actions {
		a := &actions[i]
		switch a.Type {
		case ofproto.DPOutput:
			// Only the last action hands the packet over; an earlier output
			// sends a copy, so later actions cannot reach what it sent.
			out, last := p, i == len(actions)-1
			if !last {
				out = p.Clone()
				d.Charge(t, cpu, perf.StageActions, costmodel.CopyCost(len(p.Data)))
			}
			if !pv.Transmit(t, cpu, a.Port, out) {
				if !last {
					out.Release()
				}
				d.drop(p)
				return
			}
			if t.Trace != nil {
				t.Trace.OutPort = a.Port
			}
			if last {
				return
			}
		case ofproto.DPCT:
			d.Charge(t, cpu, perf.StageActions, costmodel.ConntrackLookup)
			if a.Commit {
				d.Charge(t, cpu, perf.StageActions, costmodel.ConntrackCommit-costmodel.ConntrackLookup)
			}
			removals := d.Ct.PressureRemovals()
			d.Ct.Process(p, a.Zone, a.Commit, a.NAT)
			n := d.Ct.PressureRemovals() - removals
			for range n {
				d.Charge(t, cpu, perf.StageActions, costmodel.ConntrackEvict)
			}
			t.Perf.CtEvictions += n
			d.Charge(t, cpu, perf.StageActions, costmodel.RecirculationOverhead)
			p.RecircID = a.RecircID
			d.recirculate(pv, t, cpu, p, depth)
			return
		case ofproto.DPTunnelPush:
			d.Charge(t, cpu, perf.StageActions, costmodel.TunnelEncap)
			if d.Encapper == nil {
				continue
			}
			outer, err := d.Encapper.Encap(p, a.Tunnel)
			if err != nil {
				d.drop(p)
				return
			}
			// The outer UDP checksum is left for the egress to settle, as
			// for any partial frame: in hardware where the port has
			// checksum offload, in software where it has none.
			outer.Offloads |= packet.CsumPartial
			// Encap copied the inner frame into the outer's own buffer.
			p.Release()
			p = outer
		case ofproto.DPTunnelPop:
			d.Charge(t, cpu, perf.StageActions, costmodel.TunnelDecap)
			inner, wasTunnel, err := tunnel.Decap(p)
			if err != nil || !wasTunnel {
				d.drop(p)
				return
			}
			// The inner frame moves to the front of the outer's buffer and
			// takes over its packet, so the frame goes back to its pool
			// whoever consumes it.
			data := append(p.Data[:0], inner.Data...)
			p.ResetMetadata()
			p.Data, p.InPort, p.Offloads, p.Tunnel = data, a.Port, inner.Offloads, inner.Tunnel
			d.recirculate(pv, t, cpu, p, depth)
			return
		case ofproto.DPMeter:
			if !d.Pipeline.MeterAllow(a.MeterID, len(p.Data), d.Eng.Now()) {
				d.drop(p)
				return
			}
		default:
			if a.Rewrite(p) && d.Row.Rewrite > 0 {
				d.Charge(t, cpu, perf.StageActions, d.Row.Rewrite)
			}
		}
	}
	// Actions that run out without handing the packet on drop it, as in
	// OVS; an empty list (a drop flow) is the shortest such list.
	d.drop(p)
}

// recirculate runs p through the pass again, one level deeper.
func (d *Datapath) recirculate(pv Provider, t *Thread, cpu *sim.CPU, p *packet.Packet, depth int) {
	d.Recirculations++
	if t.Trace != nil {
		t.Trace.Recircs++
	}
	d.Process(pv, t, cpu, p, depth+1, true)
}
