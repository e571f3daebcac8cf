package kernelsim

import (
	"ovsxdp/internal/conntrack"
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/fastpath"
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
// upcalls to userspace ovs-vswitchd (the ofproto pipeline). It runs the
// fastpath pass over the kernel cost row in one softirq context (the
// embedded Thread), whichever CPU a packet arrives on.
type Datapath struct {
	fastpath.Datapath
	fastpath.Thread
	Flavor Flavor

	flows *dpcls.Classifier

	// Outputs maps datapath port numbers to transmit functions (NIC tx,
	// tap delivery, veth delivery); the registered function is run in
	// softirq context after the kernel-side transmit cost is charged.
	Outputs map[uint32]func(*packet.Packet)

	// ActiveCPUs reports how many softirq CPUs process packets
	// concurrently, feeding the SMT-contention model; nil means 1.
	ActiveCPUs func() int
}

// NewDatapath builds a kernel datapath over a pipeline.
func NewDatapath(eng *sim.Engine, flavor Flavor, pl *ofproto.Pipeline) *Datapath {
	d := &Datapath{
		Datapath: fastpath.Datapath{Eng: eng, Pipeline: pl, Ct: conntrack.NewTable(eng)},
		Thread:   fastpath.Thread{Perf: &perf.Stats{}},
		Flavor:   flavor,
		flows:    dpcls.New(0x6b73),
		Outputs:  make(map[uint32]func(*packet.Packet)),
	}
	d.Row = fastpath.Row{Cat: sim.Softirq,
		Output: costmodel.KernelOVSActions + costmodel.KernelDriverTx, Scale: d.cost}
	d.Slow = upcall.NewQueue(eng, &d.UpcallQueueCap, &d.Counters, d.Perf, upcall.Host{
		Table:     d.flows,
		Install:   d.InstallFlow,
		Remove:    d.flows.Remove,
		Translate: d.Translate,
		Handler:   d.HandlerCPU,
		Category:  sim.System,
		// The softirq CPU the packet arrived on is remembered so the
		// reinjected packet charges the context it would have run in.
		Reinject: func(p *packet.Packet, cpu *sim.CPU) { d.Datapath.Process(d, &d.Thread, cpu, p, 0, false) },
		Release:  (*packet.Packet).Release,
	})
	return d
}

// FlowCount returns installed datapath flows.
func (d *Datapath) FlowCount() int { return d.flows.Len() }

// Flows returns the flow table: what dpif dumps (ovs-dpctl dump-flows on
// the kernel datapath), deletes from and hangs its install notification on.
// Install through InstallFlow, which applies the flavor's discipline.
func (d *Datapath) Flows() *dpcls.Classifier { return d.flows }

// InstallFlow installs a datapath flow directly (dpif FlowPut). The eBPF
// flavor's verifier restrictions forbid megaflow wildcarding, so its masks
// are narrowed to exact-match exactly as on the upcall path.
func (d *Datapath) InstallFlow(key flow.Key, mask flow.Mask, actions []ofproto.DPAction) dpcls.Ref {
	if d.Flavor == FlavorEBPF {
		mask = flow.MaskAll()
	}
	return d.flows.Insert(key, mask, actions)
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
	d.Datapath.Process(d, &d.Thread, cpu, p, 0, true)
}

// Receive implements fastpath.Provider: skb allocation and the driver's
// receive path.
func (d *Datapath) Receive(t *fastpath.Thread, cpu *sim.CPU, _ *packet.Packet, _ int) bool {
	d.Charge(t, cpu, perf.StageRx, costmodel.SkbAlloc+costmodel.KernelDriverRx)
	return true
}

// Lookup implements fastpath.Provider: one probe of the one flow table.
func (d *Datapath) Lookup(t *fastpath.Thread, cpu *sim.CPU, key *flow.Key, _ int) ([]ofproto.DPAction, bool) {
	d.Charge(t, cpu, perf.StageDpcls, costmodel.KernelOVSLookup)
	e, _, _ := d.flows.LookupKey(key)
	if e == nil {
		return nil, false
	}
	t.Perf.MegaflowHits++
	t.Resolved(perf.ResultMegaflow)
	return d.flows.Actions(e), true
}

// Install implements fastpath.Provider through InstallFlow, so an upcall's
// megaflow is narrowed on the eBPF flavor like a FlowPut.
func (d *Datapath) Install(_ *fastpath.Thread, key *flow.Key, mf ofproto.Megaflow) {
	d.InstallFlow(*key, mf.Mask, mf.Actions)
}

// Transmit implements fastpath.Provider: the vport's transmit function, run
// after the kernel-side output cost.
func (d *Datapath) Transmit(t *fastpath.Thread, cpu *sim.CPU, port uint32, p *packet.Packet) bool {
	out, ok := d.Outputs[port]
	if !ok {
		return false
	}
	d.Charge(t, cpu, perf.StageActions, d.Row.Output)
	out(p)
	return true
}

// FlushFlows drops all installed datapath flows (revalidation).
func (d *Datapath) FlushFlows() { d.flows.Flush() }
