package dpif

import (
	"fmt"

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
			config: configTarget{fp: &kdp.Datapath, inert: make(map[string]string)}}, nil
	}
}

// Kernel exposes the wrapped kernel datapath for wiring that the dpif seam
// does not cover (NAPI actor handlers, experiment internals).
func (d *Netlink) Kernel() *kernelsim.Datapath { return d.kdp }

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
func (d *Netlink) FlowDel(f Flow) bool { return f.Table == d.kdp.Flows() && f.Table.Remove(f.Ref) }

// FlowDump implements Dpif.
func (d *Netlink) FlowDump() []Flow {
	var out []Flow
	for _, r := range d.kdp.Flows().Refs(nil) {
		out = append(out, Flow{Table: d.kdp.Flows(), Ref: r})
	}
	return out
}

// FlowFlush implements Dpif.
func (d *Netlink) FlowFlush() { d.kdp.FlushFlows() }

// SetFlowHook implements Dpif: the kernel table's install notification
// (the single classifier shard), fired for upcall installs, InstallFlow and
// negative flows, not for in-place replacements.
func (d *Netlink) SetFlowHook(fn func(Flow)) { d.kdp.Flows().OnInsert = fn }

// Execute implements Dpif: the packet runs in softirq context on a
// dedicated injection CPU.
func (d *Netlink) Execute(p *packet.Packet) {
	if d.execCPU == nil {
		d.execCPU = d.eng.NewCPU("dpif-exec")
	}
	d.kdp.Process(d.execCPU, p)
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

// PerfStats implements Dpif: the kernel datapath processes packets in one
// logical softirq context, so a single block is returned, named after the
// flavor.
func (d *Netlink) PerfStats() []perf.ThreadStats {
	return []perf.ThreadStats{{Name: d.kdp.Flavor.String(), Stats: d.kdp.Perf}}
}

// EnableTrace implements Dpif.
func (d *Netlink) EnableTrace(n int) { d.kdp.Perf.EnableTrace(n) }

// Stats implements Dpif.
func (d *Netlink) Stats() Stats {
	s := Stats{
		Missed:         d.kdp.Upcalls,
		Lost:           d.kdp.Drops,
		MalformedDrops: d.kdp.MalformedDrops,
		Processed:      d.kdp.Processed,
		Flows:          d.kdp.FlowCount(),
		Ports:          len(d.kdp.Outputs),
	}
	s.addThreads(d.PerfStats())
	fillCtStats(&s, d.kdp.Ct)
	return s
}
