package dpif

import (
	"fmt"

	"ovsxdp/internal/core"
	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/perf"
	"ovsxdp/internal/sim"
)

// Netdev adapts the userspace datapath (core.Datapath: PMD threads, EMC,
// per-PMD megaflow classifiers, AF_XDP/DPDK/vhost/tap ports) to the dpif
// interface — the dpif-netdev analog.
type Netdev struct {
	dp     *core.Datapath
	config configTarget
}

func init() {
	Register("netdev", func(cfg Config) (Dpif, error) {
		opts, ok := cfg.Options.(core.Options)
		if !ok {
			opts = core.DefaultOptions()
		}
		dp := core.NewDatapath(cfg.Eng, cfg.Pipeline, opts)
		return &Netdev{dp: dp, config: configTarget{uc: &dp.Opts.Upcall, ct: dp.Ct, dp: dp}}, nil
	})
}

// Datapath exposes the wrapped userspace datapath for wiring that the dpif
// seam does not cover (experiment-specific port internals).
func (d *Netdev) Datapath() *core.Datapath { return d.dp }

// NewPMD adds a poll-mode thread to the datapath on its own CPU.
func (d *Netdev) NewPMD(mode core.Mode) *core.PMD { return d.dp.NewPMD(mode, nil) }

// Type implements Dpif.
func (d *Netdev) Type() string { return "netdev" }

// PortAdd implements Dpif: core ports attach directly; TxPorts are wrapped
// into an output-only core port.
func (d *Netdev) PortAdd(p Port) error {
	switch port := p.(type) {
	case core.Port:
		d.dp.AddPort(port)
	case TxPort:
		d.dp.AddPort(&txPortAdapter{tp: port})
	default:
		return fmt.Errorf("dpif-netdev: unsupported port kind %T for %q", p, p.Name())
	}
	return nil
}

// PortDel implements Dpif.
func (d *Netdev) PortDel(id uint32) error {
	if d.dp.Port(id) == nil {
		return fmt.Errorf("dpif-netdev: no port %d", id)
	}
	d.dp.RemovePort(id)
	return nil
}

// FlowPut implements Dpif: the flow is installed into every PMD's
// classifier, as dpif-netdev replicates flows across the threads that may
// see the traffic. A thread is created if none exists yet.
func (d *Netdev) FlowPut(key flow.Key, mask flow.Mask, actions []ofproto.DPAction) {
	d.ensurePMD()
	for _, m := range d.dp.PMDs() {
		m.Classifier().Insert(key, mask, actions)
	}
}

// FlowDel implements Dpif: the owning PMD drops the entry and invalidates
// that one megaflow in everything cached above it (core.PMD.RemoveFlow);
// the full-EMC flush is reserved for FlowFlush.
func (d *Netdev) FlowDel(f Flow) bool {
	m, ok := f.owner.(*core.PMD)
	if !ok {
		return false
	}
	return m.RemoveFlow(f.Entry)
}

// FlowDump implements Dpif.
func (d *Netdev) FlowDump() []Flow {
	var out []Flow
	for _, m := range d.dp.PMDs() {
		for _, e := range m.Classifier().Entries() {
			out = append(out, Flow{Entry: e, owner: m})
		}
	}
	return out
}

// FlowFlush implements Dpif.
func (d *Netdev) FlowFlush() { d.dp.FlushFlows() }

// SetFlowHook implements Dpif, adapting the datapath's per-PMD install
// notification to the provider-independent Flow shape (the PMD becomes the
// owner token, exactly as FlowDump reports it).
func (d *Netdev) SetFlowHook(fn func(Flow)) {
	if fn == nil {
		d.dp.SetFlowHook(nil)
		return
	}
	d.dp.SetFlowHook(func(m *core.PMD, e *dpcls.Entry) {
		fn(Flow{Entry: e, owner: m})
	})
}

// Execute implements Dpif.
func (d *Netdev) Execute(p *packet.Packet) { d.dp.Execute(p) }

// SetUpcall implements Dpif.
func (d *Netdev) SetUpcall(fn UpcallFunc) { d.dp.SetUpcall(fn) }

// SetConfig implements Dpif: every key acts on the live userspace datapath
// — cache toggles take effect on the next packet, balancer and policy
// changes on the next placement or tick.
func (d *Netdev) SetConfig(kv map[string]string) error { return d.config.set(kv) }

// GetConfig implements Dpif: values reflect the live datapath state, so a
// bed configured through core.Options at construction reads back
// identically to one configured through SetConfig.
func (d *Netdev) GetConfig() map[string]string { return d.config.get() }

// PmdRxqShow implements Dpif.
func (d *Netdev) PmdRxqShow() string { return d.dp.PmdRxqShow() }

// Stats implements Dpif: hits combine every caching level a packet can
// shortcut through — EMC, SMC, and the megaflow classifier.
func (d *Netdev) Stats() Stats {
	s := Stats{
		Hits:             d.dp.EMCHits + d.dp.SMCHits + d.dp.MegaflowHits,
		SMCHits:          d.dp.SMCHits,
		Missed:           d.dp.Upcalls,
		Lost:             d.dp.Drops,
		UpcallQueueDrops: d.dp.UpcallQueueDrops,
		MalformedDrops:   d.dp.MalformedDrops,
		Processed:        d.dp.Processed,
		Flows:            d.dp.FlowCount(),
		Ports:            d.dp.Ports(),
	}
	off := d.dp.OffloadStats()
	s.OffloadHits = off.Hits
	s.OffloadInstalls = off.Installs
	s.OffloadEvictions = off.Evictions
	s.OffloadUninstalls = off.Uninstalls
	s.OffloadRefused = off.Refused
	s.OffloadReadbacks = off.Readbacks
	s.OffloadLive = off.Live
	fillCtStats(&s, d.dp.Ct)
	return s
}

// PerfStats implements Dpif: one counter block per PMD thread, named after
// its CPU ("pmd0", "pmd1", ...).
func (d *Netdev) PerfStats() []perf.ThreadStats {
	var out []perf.ThreadStats
	for _, m := range d.dp.PMDs() {
		out = append(out, perf.ThreadStats{Name: m.CPU.Name(), Stats: m.Perf})
	}
	return out
}

// EnableTrace implements Dpif.
func (d *Netdev) EnableTrace(n int) { d.dp.EnableTrace(n) }

func (d *Netdev) ensurePMD() {
	if len(d.dp.PMDs()) == 0 {
		d.dp.NewPMD(core.ModeNonPMD, nil)
	}
}

// txPortAdapter presents a TxPort as an output-only core.Port.
type txPortAdapter struct {
	tp TxPort
}

func (a *txPortAdapter) ID() uint32                             { return a.tp.PortID }
func (a *txPortAdapter) Name() string                           { return a.tp.PortName }
func (a *txPortAdapter) NumRxQueues() int                       { return 0 }
func (a *txPortAdapter) NumTxQueues() int                       { return 0 } // function delivery: no txq limit
func (a *txPortAdapter) Rx(*sim.CPU, int, int) []*packet.Packet { return nil }
func (a *txPortAdapter) Tx(_ *sim.CPU, _ int, p *packet.Packet) { a.tp.Deliver(p) }
func (a *txPortAdapter) Flush(*sim.CPU, int)                    {}
func (a *txPortAdapter) Arm(int, func())                        {}
