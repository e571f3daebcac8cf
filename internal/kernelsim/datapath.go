package kernelsim

import (
	"ovsxdp/internal/conntrack"
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/faultinject"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/perf"
	"ovsxdp/internal/sim"
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

	// UpcallQueueCap bounds the queue of packets awaiting translation by
	// the userspace handler — the per-port netlink socket buffer whose
	// overflow the kernel reports as ENOBUFS. Zero keeps the legacy
	// inline upcall.
	UpcallQueueCap int
	// UpcallServiceInterval is the handler's per-upcall service time when
	// the queue is bounded; zero defaults to costmodel.UpcallCost.
	UpcallServiceInterval sim.Time
	// UpcallRetryBase seeds the exponential backoff for transient upcall
	// failures; zero defaults to UpcallCost/4.
	UpcallRetryBase sim.Time
	// UpcallMaxRetries bounds backoff retries of one transient upcall;
	// zero defaults to 3.
	UpcallMaxRetries int
	// NegativeFlowTTL is the lifetime of the drop flow installed when an
	// upcall fails for good; <= 0 disables it.
	NegativeFlowTTL sim.Time

	// upcallQ parks packets awaiting translation when UpcallQueueCap is
	// set; upcallBusy is set while a handler service event is in flight;
	// handler is the userspace handler thread's CPU, created lazily.
	upcallQ    []*kpendingUpcall
	upcallBusy bool
	handler    *sim.CPU

	// Perf is the softirq context's performance-counter block, the kernel
	// counterpart of a PMD's dpif-netdev-perf stats. The kernel path has no
	// EMC, so StageEMC stays zero and flow-table hits land in StageDpcls.
	Perf *perf.Stats
	// trace, while non-nil, is the lifecycle record of the depth-0 packet
	// currently in process.
	trace *perf.TraceRecord

	// Stats.
	Hits    uint64
	Misses  uint64
	Drops   uint64
	Upcalls uint64
	// Processed counts fast-path passes (including recirculation), the
	// conservation base for the drop counters.
	Processed uint64
	// UpcallErrors counts translations that failed for good.
	UpcallErrors uint64
	// UpcallQueueDrops counts packets refused because the bounded upcall
	// queue was full (ENOBUFS); they are not in Drops.
	UpcallQueueDrops uint64
	// UpcallRetries counts backoff retries of transient upcall failures.
	UpcallRetries uint64
	// MalformedDrops counts slow-path parse failures (the flow
	// extractor's EINVAL), split from policy drops.
	MalformedDrops uint64
}

// NewDatapath builds a kernel datapath over a pipeline.
func NewDatapath(eng *sim.Engine, flavor Flavor, pl *ofproto.Pipeline) *Datapath {
	return &Datapath{
		Eng:             eng,
		Flavor:          flavor,
		Pipeline:        pl,
		Ct:              conntrack.NewTable(eng),
		flows:           dpcls.New(0x6b73),
		Outputs:         make(map[uint32]func(*packet.Packet)),
		Perf:            perf.NewStats(),
		NegativeFlowTTL: costmodel.NegativeFlowTTL,
	}
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
func (d *Datapath) InstallFlow(key flow.Key, mask flow.Mask, actions any) *dpcls.Entry {
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
func (d *Datapath) translate(key flow.Key) (ofproto.Megaflow, error) {
	if d.upcall != nil {
		return d.upcall(key)
	}
	return d.Pipeline.Translate(key)
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

	key := flow.Extract(p)
	d.charge(cpu, sim.Softirq, perf.StageDpcls, d.cost(costmodel.KernelOVSLookup))
	entry, _ := d.flows.LookupKey(&key)
	if entry == nil {
		// The kernel flow extractor rejects malformed frames with EINVAL
		// before any upcall is attempted; keep those distinct from policy
		// drops.
		if flow.Malformed(p) {
			d.MalformedDrops++
			return
		}
		d.Misses++
		d.Upcalls++
		if d.UpcallQueueCap > 0 {
			// Bounded netlink socket: park the packet for the userspace
			// handler, or drop with ENOBUFS when the queue is full.
			// Misses are counted above even for refused packets.
			d.traceResolved(perf.ResultUpcall)
			if len(d.upcallQ) >= d.UpcallQueueCap {
				d.UpcallQueueDrops++
				d.Perf.UpcallQueueDrops++
				return
			}
			d.upcallQ = append(d.upcallQ,
				&kpendingUpcall{key: key, pkt: p, enq: d.Eng.Now(), cpu: cpu})
			if n := uint64(len(d.upcallQ)); n > d.Perf.UpcallQueuePeak {
				d.Perf.UpcallQueuePeak = n
			}
			d.kickUpcalls()
			return
		}
		// Legacy path: inline upcall to ovs-vswitchd over netlink —
		// expensive, and the translation installs a flow for successors.
		upcallBefore := cpu.BusyTotal()
		d.charge(cpu, sim.System, perf.StageUpcall, costmodel.UpcallCost)
		mf, err := d.translate(key)
		d.Perf.AddUpcall(cpu.BusyTotal() - upcallBefore)
		d.traceResolved(perf.ResultUpcall)
		if err != nil {
			d.UpcallErrors++
			d.Drops++
			d.installNegativeFlow(key)
			return
		}
		entry = d.InstallFlow(key, mf.Mask, mf.Actions)
	} else {
		d.Hits++
		d.Perf.MegaflowHits++
		d.traceResolved(perf.ResultMegaflow)
	}

	actions, _ := entry.Actions.([]ofproto.DPAction)
	if len(actions) == 0 {
		d.Drops++
		return
	}
	d.execute(cpu, p, actions, depth)
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
			if out, ok := d.Outputs[a.Port]; ok {
				out(p)
			} else {
				d.Drops++
			}
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
		case ofproto.DPPushVLAN:
			p.Data = hdr.PushVLAN(p.Data, a.VLAN, a.VLANPrio)
		case ofproto.DPPopVLAN:
			p.Data = hdr.PopVLAN(p.Data)
		case ofproto.DPSetEthSrc:
			if len(p.Data) >= 12 {
				copy(p.Data[6:12], a.MAC[:])
			}
		case ofproto.DPSetEthDst:
			if len(p.Data) >= 6 {
				copy(p.Data[0:6], a.MAC[:])
			}
		case ofproto.DPDecTTL:
			decTTL(p)
		case ofproto.DPTunnelPush:
			// The kernel's own encapsulation: charged, and the
			// packet grows by the overhead; the full byte-level
			// encap lives in the userspace datapath (package
			// core), which is the system under study.
			d.charge(cpu, sim.Softirq, perf.StageActions, d.cost(costmodel.TunnelEncap))
		case ofproto.DPMeter:
			if !d.Pipeline.MeterAllow(a.MeterID, len(p.Data), d.Eng.Now()) {
				d.Drops++
				return
			}
		}
	}
}

func decTTL(p *packet.Packet) {
	eth, err := hdr.ParseEthernet(p.Data)
	if err != nil || eth.Type != hdr.EtherTypeIPv4 {
		return
	}
	raw := p.Data[eth.HeaderLen:]
	ip, err := hdr.ParseIPv4(raw)
	if err != nil || ip.TTL == 0 {
		return
	}
	ip.TTL--
	ip.SerializeTo(raw[:hdr.IPv4MinSize])
}

// FlushFlows drops all installed datapath flows (revalidation).
func (d *Datapath) FlushFlows() { d.flows.Flush() }

// kpendingUpcall is one packet parked in the bounded upcall queue. The
// softirq CPU it arrived on is kept so the reinjected packet charges the
// same context it would have run in.
type kpendingUpcall struct {
	key     flow.Key
	pkt     *packet.Packet
	enq     sim.Time
	attempt int
	cpu     *sim.CPU
}

// upcallInterval is the bounded handler's per-upcall service time.
func (d *Datapath) upcallInterval() sim.Time {
	if d.UpcallServiceInterval > 0 {
		return d.UpcallServiceInterval
	}
	return costmodel.UpcallCost
}

// retryBase seeds the exponential backoff for transient upcall failures.
func (d *Datapath) retryBase() sim.Time {
	if d.UpcallRetryBase > 0 {
		return d.UpcallRetryBase
	}
	return costmodel.UpcallCost / 4
}

// maxUpcallRetries bounds backoff retries of one transient upcall.
func (d *Datapath) maxUpcallRetries() int {
	if d.UpcallMaxRetries > 0 {
		return d.UpcallMaxRetries
	}
	return 3
}

// handlerCPU lazily creates the userspace handler thread (ovs-vswitchd's
// handler pool, reduced to one thread).
func (d *Datapath) handlerCPU() *sim.CPU {
	if d.handler == nil {
		d.handler = d.Eng.NewCPU("ovs-handler")
	}
	return d.handler
}

// installNegativeFlow installs a short-lived drop flow after a failed
// upcall; it self-expires after NegativeFlowTTL.
func (d *Datapath) installNegativeFlow(key flow.Key) {
	ttl := d.NegativeFlowTTL
	if ttl <= 0 {
		return
	}
	e := d.flows.Insert(key, flow.MaskAll(), nil)
	d.Eng.Schedule(ttl, func() { d.flows.Remove(e) })
}

// kickUpcalls schedules the next queued upcall for service one handler
// service interval from now.
func (d *Datapath) kickUpcalls() {
	if d.upcallBusy || len(d.upcallQ) == 0 {
		return
	}
	d.upcallBusy = true
	d.Eng.Schedule(d.upcallInterval(), d.serviceUpcall)
}

// serviceUpcall handles one parked upcall on the userspace handler thread,
// mirroring the netdev provider's semantics exactly: dedup against the
// flow table, translate with backoff retry on transient faults, install
// the flow (or a negative flow on hard failure), reinject the packet.
func (d *Datapath) serviceUpcall() {
	d.upcallBusy = false
	if len(d.upcallQ) == 0 {
		return
	}
	u := d.upcallQ[0]
	d.upcallQ = d.upcallQ[1:]
	defer d.kickUpcalls()

	if e, _ := d.flows.LookupKey(&u.key); e != nil {
		d.processCounted(u.cpu, u.pkt, 0, false)
		return
	}

	cpu := d.handlerCPU()
	cpu.Consume(sim.System, costmodel.UpcallCost)
	d.Perf.Add(perf.StageUpcall, costmodel.UpcallCost)
	mf, err := d.translate(u.key)
	if err != nil {
		if te, ok := err.(interface{ Transient() bool }); ok && te.Transient() &&
			u.attempt < d.maxUpcallRetries() {
			u.attempt++
			d.UpcallRetries++
			delay := faultinject.Backoff(d.Eng.Rand(), d.retryBase(), u.attempt)
			d.Eng.Schedule(delay, func() {
				// Retries bypass the cap: the packet was admitted once.
				d.upcallQ = append(d.upcallQ, u)
				d.kickUpcalls()
			})
			return
		}
		d.UpcallErrors++
		d.Drops++
		d.Perf.AddUpcall(d.Eng.Now() - u.enq)
		d.installNegativeFlow(u.key)
		return
	}
	d.InstallFlow(u.key, mf.Mask, mf.Actions)
	d.Perf.AddUpcall(d.Eng.Now() - u.enq)
	d.processCounted(u.cpu, u.pkt, 0, false)
}
