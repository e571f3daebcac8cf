// Package ovs is the public API of the OVS AF_XDP reproduction: a
// deterministic, simulated Open vSwitch you can build bridges on, attach
// ports to (AF_XDP, DPDK, tap, vhostuser, veth), program with
// ovs-ofctl-style flow rules, and drive with packets — all on a virtual
// clock, so results are exactly reproducible.
//
// The fast path is the paper's architecture (Section 3): an XDP program on
// each AF_XDP port redirects packets into per-queue AF_XDP sockets, PMD
// threads poll the rings in userspace, and a per-thread exact-match cache
// plus megaflow classifier shortcut the OpenFlow pipeline.
//
// Quick start:
//
//	sw := ovs.New()
//	br := sw.AddBridge("br0")
//	p1, _ := br.AddAFXDPPort("eth0", 1)
//	p2, _ := br.AddAFXDPPort("eth1", 1)
//	br.MustAddFlow("in_port=" + p1.IDString() + ",actions=output:" + p2.IDString())
//	p2.OnOutput(func(frame []byte) { ... })
//	p1.Inject(frame)
//	sw.Run(10 * time.Millisecond)
package ovs

import (
	"fmt"
	"time"

	"ovsxdp/internal/core"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/kit"
	"ovsxdp/internal/netlinksim"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/openflow"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/tunnel"
	"ovsxdp/internal/vswitchd"
)

// Switch is one simulated vSwitch instance: an event engine and an
// ovs-vswitchd over the userspace ("netdev") datapath provider. The daemon
// owns the bridges, the ports and the OpenFlow pipeline; Switch is the typed
// way in.
type Switch struct {
	eng    *sim.Engine
	daemon *vswitchd.VSwitchd
	dp     *core.Datapath // the daemon's datapath, for its counters
	kernel *netlinksim.Kernel
}

// Option configures New.
type Option func(*config)

type config struct {
	seed    uint64
	opts    core.Options
	pmdMode core.Mode
}

// WithSeed fixes the randomness seed (default 1).
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithoutEMC disables the exact-match cache (ablation).
func WithoutEMC() Option { return func(c *config) { c.opts.EMC = false } }

// WithCsumOffloadEstimate enables the paper's O5 estimated checksum
// offload.
func WithCsumOffloadEstimate() Option {
	return func(c *config) { c.opts.AssumeCsumOffload = true }
}

// WithInterruptMode runs the PMD interrupt-driven instead of busy-polling.
func WithInterruptMode() Option { return func(c *config) { c.pmdMode = core.ModeInterrupt } }

// New builds a switch with one PMD thread.
func New(options ...Option) *Switch {
	cfg := config{seed: 1, opts: core.DefaultOptions(), pmdMode: core.ModePoll}
	for _, o := range options {
		o(&cfg)
	}
	eng := sim.NewEngine(cfg.seed)
	pl := ofproto.NewPipeline()
	nd := kit.Must(dpif.Open("netdev", dpif.Config{Eng: eng, Pipeline: pl, Options: cfg.opts})).(*dpif.Netdev)
	s := &Switch{eng: eng, daemon: vswitchd.New(nil, pl, nd), dp: nd.Datapath(), kernel: netlinksim.NewKernel()}
	s.dp.Encapper = tunnel.NewEncapper(netlinksim.NewCache(s.kernel))
	nd.NewPMD(cfg.pmdMode).Start()
	return s
}

// Run advances virtual time by d (mapped 1:1 from wall-clock units to
// simulated time).
func (s *Switch) Run(d time.Duration) {
	s.eng.RunUntil(s.eng.Now() + sim.Time(d.Nanoseconds()))
}

// Now returns the current virtual time since start.
func (s *Switch) Now() time.Duration {
	return time.Duration(int64(s.eng.Now()))
}

// AddBridge creates a bridge.
func (s *Switch) AddBridge(name string) *Bridge {
	s.daemon.AddBridge(name)
	return &Bridge{sw: s, Name: name}
}

// Bridge returns a bridge by name.
func (s *Switch) Bridge(name string) (*Bridge, bool) {
	if _, ok := s.daemon.Bridge(name); !ok {
		return nil, false
	}
	return &Bridge{sw: s, Name: name}, true
}

// Stats reports datapath counters.
type Stats struct {
	Processed      uint64
	EMCHits        uint64
	MegaflowHits   uint64
	Upcalls        uint64
	Drops          uint64
	Recirculations uint64
	FlowRules      int
}

// Stats returns a snapshot of datapath counters.
func (s *Switch) Stats() Stats {
	return Stats{
		Processed:      s.dp.Processed,
		EMCHits:        s.dp.EMCHits,
		MegaflowHits:   s.dp.MegaflowHits,
		Upcalls:        s.dp.Upcalls,
		Drops:          s.dp.Drops,
		Recirculations: s.dp.Recirculations,
		FlowRules:      s.FlowRuleCount(),
	}
}

// CPUReport returns per-category CPU consumption in hyperthread units for
// the elapsed virtual time, like the paper's Table 4 rows.
func (s *Switch) CPUReport() map[string]float64 {
	u := s.eng.CPUReport(s.eng.Now())
	return map[string]float64{
		"user":    u[sim.User],
		"system":  u[sim.System],
		"softirq": u[sim.Softirq],
		"guest":   u[sim.Guest],
	}
}

// Bridge is a named group of ports sharing the switch's pipeline.
type Bridge struct {
	sw   *Switch
	Name string
}

// Port is one datapath port.
type Port struct{ iface *kit.Iface }

// ID returns the datapath port number (usable in flow specs).
func (p *Port) ID() uint32 { return p.iface.ID() }

// IDString formats the port number for flow specs.
func (p *Port) IDString() string { return fmt.Sprint(p.ID()) }

// Name returns the port name.
func (p *Port) Name() string { return p.iface.Name() }

// Kind returns the transport kind ("afxdp", "dpdk", "tap", "vhostuser",
// "veth").
func (p *Port) Kind() string { return p.iface.Type }

// kernelDriver is the driver name under which the simulated kernel's netlink
// view lists a port's device; tap and vhostuser devices are not listed.
var kernelDriver = map[string]string{"afxdp": "simnic", "dpdk": "simnic", "veth": "veth"}

// attach has the daemon build, number and attach a port of the given kind
// and records its device with the simulated kernel.
func (b *Bridge) attach(name, kind string, queues int) (*Port, error) {
	s := b.sw
	iface, err := s.daemon.AddPort(b.Name, name, kind, queues)
	if driver, listed := kernelDriver[kind]; err == nil && listed {
		_, err = s.kernel.AddLink(name, driver, macFor(iface.ID()), 1500)
		if err == nil && kind == "dpdk" {
			// Registered, then immediately unbound, mirroring dpdk-devbind.
			_, err = s.kernel.BindDPDK(name)
		}
		if err != nil {
			s.daemon.DelPort(b.Name, name)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("ovs: %w", err)
	}
	return &Port{iface}, nil
}

// AddAFXDPPort attaches a simulated NIC via AF_XDP: the kernel keeps the
// device (netlink tooling keeps working), an XDP program is loaded through
// the verifier and attached, and per-queue AF_XDP sockets feed the PMD.
func (b *Bridge) AddAFXDPPort(name string, queues int) (*Port, error) {
	return b.attach(name, "afxdp", queues)
}

// AddDPDKPort attaches a NIC via DPDK: the device is unbound from the
// kernel (netlink tooling on it stops working, as Table 1 documents).
func (b *Bridge) AddDPDKPort(name string, queues int) (*Port, error) {
	return b.attach(name, "dpdk", queues)
}

// AddTapPort attaches a kernel tap device (VM via QEMU relay).
func (b *Bridge) AddTapPort(name string) (*Port, error) { return b.attach(name, "tap", 1) }

// AddVhostUserPort attaches a vhostuser device (VM via shared-memory
// virtio rings).
func (b *Bridge) AddVhostUserPort(name string) (*Port, error) { return b.attach(name, "vhostuser", 1) }

// AddVethPort attaches the host end of a veth pair via AF_XDP generic
// mode (Figure 5 path A): Inject delivers frames from the container side,
// OnOutput sees frames the switch sends toward the container.
func (b *Bridge) AddVethPort(name string) (*Port, error) { return b.attach(name, "veth", 1) }

// Inject delivers a frame into the switch through this port, as if it
// arrived from the wire (AF_XDP/DPDK), the guest (tap/vhostuser), or the
// peer namespace (veth).
func (p *Port) Inject(frame []byte) {
	p.iface.Inject(packet.New(append([]byte(nil), frame...)))
}

// OnOutput registers the callback receiving frames the switch sends out
// this port.
func (p *Port) OnOutput(fn func(frame []byte)) {
	if fn == nil {
		p.iface.OnOutput(nil)
		return
	}
	p.iface.OnOutput(func(pk *packet.Packet) { fn(pk.Data) })
}

// AddFlow parses an ovs-ofctl-style flow specification and installs it.
// See ParseFlow for the supported syntax.
func (b *Bridge) AddFlow(spec string) error {
	rule, err := ParseFlow(spec)
	if err != nil {
		return err
	}
	b.sw.daemon.ApplyFlowMod(openflow.AddFlow(rule))
	return nil
}

// MustAddFlow is AddFlow, panicking on parse errors (static flow tables).
func (b *Bridge) MustAddFlow(spec string) {
	if err := b.AddFlow(spec); err != nil {
		panic(err)
	}
}

// FlowRuleCount returns installed OpenFlow rules across all tables.
func (s *Switch) FlowRuleCount() int { return s.daemon.Pipeline.RuleCount() }

// SetMeterPPS installs (or replaces) meter id as a packet-rate limiter, for
// use with the "meter:N" flow action — the rate-limiting stopgap Section 6
// describes while real QoS is reimplemented in userspace.
func (s *Switch) SetMeterPPS(id uint32, packetsPerSec, burst float64) {
	s.daemon.Pipeline.SetMeter(id, &ofproto.TokenBucket{
		RatePerSec: packetsPerSec, Burst: burst, PerPacket: true})
}

// SetMeterBPS installs meter id as a bit-rate limiter.
func (s *Switch) SetMeterBPS(id uint32, bitsPerSec, burstBits float64) {
	s.daemon.Pipeline.SetMeter(id, &ofproto.TokenBucket{
		RatePerSec: bitsPerSec, Burst: burstBits})
}

func macFor(id uint32) [6]byte {
	return [6]byte{0x02, 0x00, 0x5e, byte(id >> 16), byte(id >> 8), byte(id)}
}
