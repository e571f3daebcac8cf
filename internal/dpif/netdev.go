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
	dp *core.Datapath
}

func init() {
	Register("netdev", func(cfg Config) (Dpif, error) {
		opts, ok := cfg.Options.(core.Options)
		if !ok {
			opts = core.DefaultOptions()
		}
		return &Netdev{dp: core.NewDatapath(cfg.Eng, cfg.Pipeline, opts)}, nil
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
func (d *Netdev) SetConfig(kv map[string]string) error {
	dp := d.dp
	return applyConfig(kv, func(key string, v any) error {
		if shared, err := setShared(&dp.Opts.Upcall, dp.Ct, key, v); shared {
			return err
		}
		switch key {
		case "pmd-rxq-assign":
			p, err := core.ParseAssignPolicy(v.(string))
			if err != nil {
				return err
			}
			dp.Opts.RxqAssign = p
			dp.SetAssignPolicy(p)
		case "pmd-auto-lb":
			dp.Opts.AutoLB = v.(bool)
			dp.ConfigureAutoLB(v.(bool), 0, -1)
		case "pmd-auto-lb-rebal-interval-us":
			t := v.(sim.Time)
			if t <= 0 {
				return fmt.Errorf("dpif-netdev: pmd-auto-lb-rebal-interval-us must be positive")
			}
			dp.Opts.AutoLBInterval = t
			dp.ConfigureAutoLB(dp.AutoLBEnabled(), t, -1)
		case "pmd-auto-lb-improvement-threshold":
			dp.Opts.AutoLBThresholdPct = v.(int)
			dp.ConfigureAutoLB(dp.AutoLBEnabled(), 0, v.(int))
		case "tx-lock-mutex":
			dp.Opts.TxLockMutex = v.(bool)
		case "emc-enable":
			dp.Opts.EMC = v.(bool)
		case "emc-insert-inv-prob":
			if v.(int) < 1 {
				return fmt.Errorf("dpif-netdev: emc-insert-inv-prob must be >= 1")
			}
			dp.Opts.EMCInsertInvProb = v.(int)
		case "smc-enable":
			dp.ConfigureSMC(v.(bool), 0)
		case "smc-entries":
			dp.ConfigureSMC(dp.Opts.SMC, v.(int))
		case "batch-dedup":
			dp.Opts.BatchDedup = v.(bool)
		case "hw-offload":
			o := dp.Opts.Offload
			o.Enable = v.(bool)
			dp.ConfigureOffload(o)
		case "hw-offload-table-size":
			if v.(int) < 1 {
				return fmt.Errorf("dpif-netdev: hw-offload-table-size must be >= 1")
			}
			o := dp.Opts.Offload
			o.TableSize = v.(int)
			dp.ConfigureOffload(o)
		case "hw-offload-elephant-pps":
			if v.(int) < 1 {
				return fmt.Errorf("dpif-netdev: hw-offload-elephant-pps must be >= 1")
			}
			o := dp.Opts.Offload
			o.ElephantPPS = v.(int)
			dp.ConfigureOffload(o)
		case "hw-offload-readback-us":
			if v.(sim.Time) <= 0 {
				return fmt.Errorf("dpif-netdev: hw-offload-readback-us must be positive")
			}
			o := dp.Opts.Offload
			o.ReadbackInterval = v.(sim.Time)
			dp.ConfigureOffload(o)
		case "hw-offload-ewma-weight":
			if v.(int) < 1 || v.(int) > 100 {
				return fmt.Errorf("dpif-netdev: hw-offload-ewma-weight must be in 1..100")
			}
			o := dp.Opts.Offload
			o.EWMAWeightPct = v.(int)
			dp.ConfigureOffload(o)
		}
		return nil
	})
}

// GetConfig implements Dpif: values reflect the live datapath state, so a
// bed configured through core.Options at construction reads back
// identically to one configured through SetConfig.
func (d *Netdev) GetConfig() map[string]string {
	dp := d.dp
	interval, threshold := dp.AutoLBSettings()
	off := dp.OffloadSettings()
	out := map[string]string{
		"pmd-rxq-assign":                    dp.AssignPolicyInEffect().String(),
		"pmd-auto-lb":                       renderBool(dp.AutoLBEnabled()),
		"pmd-auto-lb-rebal-interval-us":     renderMicros(interval),
		"pmd-auto-lb-improvement-threshold": fmt.Sprintf("%d", threshold),
		"tx-lock-mutex":                     renderBool(dp.Opts.TxLockMutex),
		"emc-enable":                        renderBool(dp.Opts.EMC),
		"emc-insert-inv-prob":               fmt.Sprintf("%d", max(dp.Opts.EMCInsertInvProb, 1)),
		"smc-enable":                        renderBool(dp.Opts.SMC),
		"smc-entries":                       fmt.Sprintf("%d", dp.Opts.SMCEntries),
		"batch-dedup":                       renderBool(dp.Opts.BatchDedup),
		"hw-offload":                        renderBool(off.Enable),
		"hw-offload-table-size":             fmt.Sprintf("%d", off.TableSize),
		"hw-offload-elephant-pps":           fmt.Sprintf("%d", off.ElephantPPS),
		"hw-offload-readback-us":            renderMicros(off.ReadbackInterval),
		"hw-offload-ewma-weight":            fmt.Sprintf("%d", off.EWMAWeightPct),
	}
	getShared(&dp.Opts.Upcall, dp.Ct, out)
	return out
}

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
