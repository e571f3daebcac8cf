package kernelsim

import (
	"ovsxdp/internal/conntrack"
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/perf"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/upcall"
)

// Flavor selects the in-kernel datapath implementation.
type Flavor int

// Datapath flavors.
const (
	// FlavorModule is the traditional openvswitch.ko kernel module.
	FlavorModule Flavor = iota
	// FlavorEBPF is the datapath re-implemented as sandboxed eBPF at
	// the tc hook (Section 2.2.2): same structure, 10-20% slower due to
	// the bytecode sandbox, and — per the paper — no megaflow wildcard
	// support from the verifier's restrictions, which this model
	// represents as exact-match-only flow installation.
	FlavorEBPF
)

// String names the flavor.
func (f Flavor) String() string {
	if f == FlavorEBPF {
		return "ebpf-tc"
	}
	return "kernel-module"
}

// Datapath is the in-kernel OVS datapath: a megaflow table populated by
// upcalls to userspace ovs-vswitchd (the ofproto pipeline), executing
// actions in softirq context.
type Datapath struct {
	Eng      *sim.Engine
	Flavor   Flavor
	Pipeline *ofproto.Pipeline
	Ct       *conntrack.Table

	flows *dpcls.Classifier

	// Outputs maps datapath port numbers to transmit functions (NIC tx,
	// tap delivery, veth delivery); the registered function is run in
	// softirq context after the kernel-side transmit cost is charged.
	Outputs map[uint32]func(*packet.Packet)

	// ActiveCPUs reports how many softirq CPUs process packets
	// concurrently, feeding the SMT-contention model; nil means 1.
	ActiveCPUs func() int

	// upcall, when set, replaces Pipeline.Translate as the slow-path
	// handler (dpif upcall registration).
	upcall func(flow.Key) (ofproto.Megaflow, error)

	// Upcall bounds and paces the slow path; its QueueCap is the per-port
	// netlink socket buffer whose overflow the kernel reports as ENOBUFS,
	// and zero keeps the legacy inline upcall.
	Upcall upcall.Config
	// slow is the slow path the userspace handler runs: the bounded queue
	// when Upcall.QueueCap is set, failed-translation accounting always.
	slow *upcall.Queue
	// handler is the userspace handler thread's CPU, created lazily.
	handler *sim.CPU

	// Perf is the softirq context's performance-counter block, the kernel
	// counterpart of a PMD's dpif-netdev-perf stats. The kernel path has no
	// EMC, so StageEMC stays zero and flow-table hits land in StageDpcls.
	Perf *perf.Stats
	// trace, while non-nil, is the lifecycle record of the depth-0 packet
	// currently in process.
	trace *perf.TraceRecord

	// Stats. The embedded block is the slow path's share: UpcallErrors,
	// UpcallQueueDrops, UpcallRetries and Drops.
	upcall.Counters
	Hits    uint64
	Misses  uint64
	Upcalls uint64
	// Processed counts fast-path passes (including recirculation), the
	// conservation base for the drop counters.
	Processed uint64
	// MalformedDrops counts slow-path parse failures (the flow
	// extractor's EINVAL), split from policy drops.
	MalformedDrops uint64
}

// NewDatapath builds a kernel datapath over a pipeline.
func NewDatapath(eng *sim.Engine, flavor Flavor, pl *ofproto.Pipeline) *Datapath {
	d := &Datapath{
		Eng:      eng,
		Flavor:   flavor,
		Pipeline: pl,
		Ct:       conntrack.NewTable(eng),
		flows:    dpcls.New(0x6b73),
		Outputs:  make(map[uint32]func(*packet.Packet)),
		Perf:     &perf.Stats{},
		Upcall:   upcall.DefaultConfig(),
	}
	d.slow = upcall.NewQueue(eng, &d.Upcall, &d.Counters, d.Perf, upcall.Host{
		Table:     d.flows,
		Install:   d.InstallFlow,
		Remove:    d.RemoveFlow,
		Translate: d.translate,
		Handler:   d.handlerCPU,
		Category:  sim.System,
		// The softirq CPU the packet arrived on is remembered so the
		// reinjected packet charges the context it would have run in.
		Reinject: func(p *packet.Packet, cpu *sim.CPU) { d.processCounted(cpu, p, 0, false) },
		Release:  (*packet.Packet).Release,
	})
	return d
}

// EnableTrace arms packet-lifecycle tracing with a ring of n records.
func (d *Datapath) EnableTrace(n int) { d.Perf.EnableTrace(n) }

// charge consumes c in the given kernel category and attributes the same
// amount to a perf stage; c must already be flavor/contention scaled.
func (d *Datapath) charge(cpu *sim.CPU, cat sim.Category, st perf.Stage, c sim.Time) {
	cpu.Consume(cat, c)
	d.Perf.Add(st, c)
}

// traceResolved marks the in-flight trace record's resolution level, once.
func (d *Datapath) traceResolved(r perf.Result) {
	if d.trace != nil && d.trace.Result == perf.ResultNone {
		d.trace.Result = r
	}
}

// FlowCount returns installed datapath flows.
func (d *Datapath) FlowCount() int { return d.flows.Len() }

// Flows snapshots the installed datapath flows (dpif flow dumps, the data
// behind ovs-dpctl dump-flows on the kernel datapath).
func (d *Datapath) Flows() []*dpcls.Entry { return d.flows.Entries() }

// SetFlowHook registers (or, with nil, clears) the flow-installed
// notification fired for every freshly installed flow (upcall installs,
// InstallFlow, negative flows). In-place replacements do not re-fire it.
func (d *Datapath) SetFlowHook(fn func(*dpcls.Entry)) { d.flows.OnInsert = fn }

// RemoveFlow deletes one installed flow, reporting whether it was present
// (revalidator eviction).
func (d *Datapath) RemoveFlow(e *dpcls.Entry) bool { return d.flows.Remove(e) }

// InstallFlow installs a datapath flow directly (dpif FlowPut). The eBPF
// flavor's verifier restrictions forbid megaflow wildcarding, so its masks
// are narrowed to exact-match exactly as on the upcall path.
func (d *Datapath) InstallFlow(key flow.Key, mask flow.Mask, actions []ofproto.DPAction) *dpcls.Entry {
	if d.Flavor == FlavorEBPF {
		mask = flow.MaskAll()
	}
	return d.flows.Insert(key, mask, actions)
}

// SetUpcall registers the slow-path handler consulted on flow-table misses
// in place of the pipeline's translator (dpif upcall registration).
func (d *Datapath) SetUpcall(fn func(flow.Key) (ofproto.Megaflow, error)) { d.upcall = fn }

// translate resolves a missed key through the registered upcall handler,
// defaulting to the pipeline.
func (d *Datapath) translate(key *flow.Key) (ofproto.Megaflow, error) {
	if d.upcall != nil {
		return d.upcall(*key)
	}
	return d.Pipeline.Translate(*key)
}

// cost scales a base cost for the flavor (eBPF sandbox penalty) and the
// current softirq fan-out (SMT contention).
func (d *Datapath) cost(base sim.Time) sim.Time {
	if d.Flavor == FlavorEBPF {
		base = base * costmodel.EBPFSandboxPenaltyNum / costmodel.EBPFSandboxPenaltyDen
	}
	n := 1
	if d.ActiveCPUs != nil {
		n = d.ActiveCPUs()
	}
	return costmodel.SMTContention(base, n)
}

// Process runs one packet through the datapath in softirq context on cpu.
// This is the handler a NAPIActor drives.
func (d *Datapath) Process(cpu *sim.CPU, p *packet.Packet) {
	d.process(cpu, p, 0)
}

const maxKernelRecirc = 8

func (d *Datapath) process(cpu *sim.CPU, p *packet.Packet, depth int) {
	d.processCounted(cpu, p, depth, true)
}

// processCounted is process with the admission accounting gated: packets
// reinjected after a queued upcall resolves (count=false) were already
// counted at admission.
func (d *Datapath) processCounted(cpu *sim.CPU, p *packet.Packet, depth int, count bool) {
	if depth > maxKernelRecirc {
		d.Drops++
		p.Release()
		return
	}
	if count {
		d.Processed++
	}
	if depth == 0 && count {
		d.Perf.Packets++
		if tr := d.Perf.Tracer(); tr != nil {
			start := cpu.FreeAt()
			if now := d.Eng.Now(); start < now {
				start = now
			}
			rec := perf.TraceRecord{InPort: p.InPort, Start: start}
			d.trace = &rec
			defer func() {
				rec.End = cpu.FreeAt()
				tr.Add(rec)
				d.trace = nil
			}()
		}
	}
	d.charge(cpu, sim.Softirq, perf.StageRx, d.cost(costmodel.SkbAlloc+costmodel.KernelDriverRx))

	var key flow.Key
	flow.ExtractInto(p, &key)
	d.charge(cpu, sim.Softirq, perf.StageDpcls, d.cost(costmodel.KernelOVSLookup))
	entry, _ := d.flows.LookupKey(&key)
	if entry == nil {
		// The kernel flow extractor rejects malformed frames with EINVAL
		// before any upcall is attempted; keep those distinct from policy
		// drops.
		if flow.Malformed(p) {
			d.MalformedDrops++
			p.Release()
			return
		}
		d.Misses++
		d.Upcalls++
		if d.Upcall.QueueCap > 0 {
			// Bounded netlink socket: park the packet for the userspace
			// handler, or drop with ENOBUFS when the queue is full.
			// Misses are counted above even for refused packets.
			d.traceResolved(perf.ResultUpcall)
			d.slow.Admit(&key, p, cpu)
			return
		}
		// Legacy path: inline upcall to ovs-vswitchd over netlink —
		// expensive, and the translation installs a flow for successors.
		upcallBefore := cpu.BusyTotal()
		d.charge(cpu, sim.System, perf.StageUpcall, costmodel.UpcallCost)
		mf, err := d.translate(&key)
		d.Perf.AddUpcall(cpu.BusyTotal() - upcallBefore)
		d.traceResolved(perf.ResultUpcall)
		if err != nil {
			d.slow.Failed(&key, p)
			return
		}
		entry = d.InstallFlow(key, mf.Mask, mf.Actions)
	} else {
		d.Hits++
		d.Perf.MegaflowHits++
		d.traceResolved(perf.ResultMegaflow)
	}

	if len(entry.Actions) == 0 {
		d.Drops++
		p.Release()
		return
	}
	d.execute(cpu, p, entry.Actions, depth)
}

func (d *Datapath) execute(cpu *sim.CPU, p *packet.Packet, actions []ofproto.DPAction, depth int) {
	for i := range actions {
		a := &actions[i]
		switch a.Type {
		case ofproto.DPOutput:
			d.charge(cpu, sim.Softirq, perf.StageActions, d.cost(costmodel.KernelOVSActions+costmodel.KernelDriverTx))
			if d.trace != nil {
				d.trace.OutPort = a.Port
			}
			out, ok := d.Outputs[a.Port]
			if !ok {
				// kfree_skb: the frame goes back to whoever pooled it,
				// so nothing after this action may touch it.
				d.Drops++
				p.Release()
				return
			}
			out(p)
		case ofproto.DPCT:
			d.charge(cpu, sim.Softirq, perf.StageActions, d.cost(costmodel.ConntrackLookup))
			if a.Commit {
				d.charge(cpu, sim.Softirq, perf.StageActions, d.cost(costmodel.ConntrackCommit-costmodel.ConntrackLookup))
			}
			ctRemovals := d.Ct.PressureRemovals()
			d.Ct.Process(p, a.Zone, a.Commit, a.NAT)
			if n := d.Ct.PressureRemovals() - ctRemovals; n > 0 {
				d.charge(cpu, sim.Softirq, perf.StageActions, d.cost(costmodel.ConntrackEvict)*sim.Time(n))
				d.Perf.CtEvictions += n
			}
			// Recirculate.
			d.charge(cpu, sim.Softirq, perf.StageActions, d.cost(costmodel.RecirculationOverhead))
			p.RecircID = a.RecircID
			if d.trace != nil {
				d.trace.Recircs++
			}
			d.process(cpu, p, depth+1)
			return
		case ofproto.DPTunnelPush:
			// The kernel's own encapsulation: charged, and the
			// packet grows by the overhead; the full byte-level
			// encap lives in the userspace datapath (package
			// core), which is the system under study.
			d.charge(cpu, sim.Softirq, perf.StageActions, d.cost(costmodel.TunnelEncap))
		case ofproto.DPMeter:
			if !d.Pipeline.MeterAllow(a.MeterID, len(p.Data), d.Eng.Now()) {
				d.Drops++
				p.Release()
				return
			}
		default:
			a.Rewrite(p)
		}
	}
}

// FlushFlows drops all installed datapath flows (revalidation).
func (d *Datapath) FlushFlows() { d.flows.Flush() }

// handlerCPU lazily creates the userspace handler thread (ovs-vswitchd's
// handler pool, reduced to one thread).
func (d *Datapath) handlerCPU() *sim.CPU {
	if d.handler == nil {
		d.handler = d.Eng.NewCPU("ovs-handler")
	}
	return d.handler
}
