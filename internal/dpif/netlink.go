package dpif

import (
	"fmt"

	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/kernelsim"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/perf"
	"ovsxdp/internal/sim"
)

// Netlink adapts the in-kernel datapath (kernelsim.Datapath) to the dpif
// interface — the dpif-netlink analog. It backs two registry types: the
// traditional kernel module ("netlink", FlavorModule) and the sandboxed
// eBPF re-implementation ("ebpf", FlavorEBPF).
type Netlink struct {
	kdp *kernelsim.Datapath
	eng *sim.Engine

	// execCPU is the lazily created CPU Execute charges softirq work to
	// (the dpctl-execute injection context).
	execCPU *sim.CPU

	// softirqPkts counts packets per feeding softirq context, in
	// first-seen order — the kernel-side equivalent of the netdev
	// rxq-to-PMD map that PmdRxqShow reports. Pure accounting.
	softirqPkts  map[*sim.CPU]uint64
	softirqOrder []*sim.CPU

	// config binds the other_config keys this provider acts on and
	// remembers the netdev-only ones it echoes.
	config configTarget
}

func init() {
	Register("netlink", netlinkFactory(kernelsim.FlavorModule))
	Register("ebpf", netlinkFactory(kernelsim.FlavorEBPF))
}

func netlinkFactory(flavor kernelsim.Flavor) Factory {
	return func(cfg Config) (Dpif, error) {
		kdp := kernelsim.NewDatapath(cfg.Eng, flavor, cfg.Pipeline)
		return &Netlink{kdp: kdp, eng: cfg.Eng,
			softirqPkts: make(map[*sim.CPU]uint64),
			config:      configTarget{uc: &kdp.Upcall, ct: kdp.Ct, inert: make(map[string]string)}}, nil
	}
}

// Kernel exposes the wrapped kernel datapath for wiring that the dpif seam
// does not cover (NAPI actor handlers, experiment internals).
func (d *Netlink) Kernel() *kernelsim.Datapath { return d.kdp }

// Process feeds one packet to the datapath in softirq context on cpu — the
// handler NAPI actors drive.
func (d *Netlink) Process(cpu *sim.CPU, p *packet.Packet) {
	if _, seen := d.softirqPkts[cpu]; !seen {
		d.softirqOrder = append(d.softirqOrder, cpu)
	}
	d.softirqPkts[cpu]++
	d.kdp.Process(cpu, p)
}

// Type implements Dpif.
func (d *Netlink) Type() string {
	if d.kdp.Flavor == kernelsim.FlavorEBPF {
		return "ebpf"
	}
	return "netlink"
}

// PortAdd implements Dpif: the kernel datapath's ports are transmit
// functions (vport output handlers), so only TxPorts attach.
func (d *Netlink) PortAdd(p Port) error {
	tp, ok := p.(TxPort)
	if !ok {
		return fmt.Errorf("dpif-%s: unsupported port kind %T for %q (need TxPort)", d.Type(), p, p.Name())
	}
	d.kdp.Outputs[tp.PortID] = tp.Deliver
	return nil
}

// PortDel implements Dpif.
func (d *Netlink) PortDel(id uint32) error {
	if _, ok := d.kdp.Outputs[id]; !ok {
		return fmt.Errorf("dpif-%s: no port %d", d.Type(), id)
	}
	delete(d.kdp.Outputs, id)
	return nil
}

// FlowPut implements Dpif.
func (d *Netlink) FlowPut(key flow.Key, mask flow.Mask, actions []ofproto.DPAction) {
	d.kdp.InstallFlow(key, mask, actions)
}

// FlowDel implements Dpif.
func (d *Netlink) FlowDel(f Flow) bool { return d.kdp.RemoveFlow(f.Entry) }

// FlowDump implements Dpif.
func (d *Netlink) FlowDump() []Flow {
	var out []Flow
	for _, e := range d.kdp.Flows() {
		out = append(out, Flow{Entry: e, owner: d})
	}
	return out
}

// FlowFlush implements Dpif.
func (d *Netlink) FlowFlush() { d.kdp.FlushFlows() }

// SetFlowHook implements Dpif: the kernel table's install notification,
// with this provider as the owner token (the single classifier shard).
func (d *Netlink) SetFlowHook(fn func(Flow)) {
	if fn == nil {
		d.kdp.SetFlowHook(nil)
		return
	}
	d.kdp.SetFlowHook(func(e *dpcls.Entry) {
		fn(Flow{Entry: e, owner: d})
	})
}

// Execute implements Dpif: the packet runs in softirq context on a
// dedicated injection CPU.
func (d *Netlink) Execute(p *packet.Packet) {
	if d.execCPU == nil {
		d.execCPU = d.eng.NewCPU("dpif-exec")
	}
	d.Process(d.execCPU, p)
}

// SetUpcall implements Dpif.
func (d *Netlink) SetUpcall(fn UpcallFunc) { d.kdp.SetUpcall(fn) }

// SetConfig implements Dpif: the slow-path and conntrack keys act on the
// kernel datapath; netdev-only keys (pmd-*, emc-*, smc-*, ...) are validated
// and remembered but have no effect here, exactly as the real other_config
// column is global while only dpif-netdev reads those keys.
func (d *Netlink) SetConfig(kv map[string]string) error { return d.config.set(kv) }

// GetConfig implements Dpif: live values for the keys this provider acts
// on, defaults (or the remembered inert sets) for the rest.
func (d *Netlink) GetConfig() map[string]string { return d.config.get() }

// PmdRxqShow implements Dpif: the kernel datapath has no PMD threads, so
// the softirq-side equivalent is reported — every softirq context that has
// fed the datapath, with its share of processed packets (the spread the
// NIC's RSS produced across ksoftirqd contexts).
func (d *Netlink) PmdRxqShow() string {
	var total uint64
	for _, n := range d.softirqPkts {
		total += n
	}
	out := fmt.Sprintf("datapath %s: softirq-side rx contexts (no PMD threads)\n", d.Type())
	for _, cpu := range d.softirqOrder {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(d.softirqPkts[cpu]) / float64(total)
		}
		out += fmt.Sprintf("  softirq %-16s packets: %10d   rx share: %3.0f %%\n",
			cpu.Name(), d.softirqPkts[cpu], pct)
	}
	if len(d.softirqOrder) == 0 {
		out += "  (no softirq context has fed this datapath yet)\n"
	}
	return out
}

// PerfStats implements Dpif: the kernel datapath processes packets in one
// logical softirq context, so a single block is returned, named after the
// flavor.
func (d *Netlink) PerfStats() []perf.ThreadStats {
	return []perf.ThreadStats{{Name: d.kdp.Flavor.String(), Stats: d.kdp.Perf}}
}

// EnableTrace implements Dpif.
func (d *Netlink) EnableTrace(n int) { d.kdp.EnableTrace(n) }

// Stats implements Dpif.
func (d *Netlink) Stats() Stats {
	s := Stats{
		Hits:             d.kdp.Hits,
		Missed:           d.kdp.Misses,
		Lost:             d.kdp.Drops,
		UpcallQueueDrops: d.kdp.UpcallQueueDrops,
		MalformedDrops:   d.kdp.MalformedDrops,
		Processed:        d.kdp.Processed,
		Flows:            d.kdp.FlowCount(),
		Ports:            len(d.kdp.Outputs),
	}
	fillCtStats(&s, d.kdp.Ct)
	return s
}
