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
	"ovsxdp/internal/netlinksim"
	"ovsxdp/internal/nicsim"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/tunnel"
	"ovsxdp/internal/vdev"
)

// Switch is one simulated vSwitch instance: an event engine, a userspace
// datapath, and the OpenFlow pipeline behind it.
type Switch struct {
	eng      *sim.Engine
	dp       *core.Datapath
	pipeline *ofproto.Pipeline
	kernel   *netlinksim.Kernel
	bridges  map[string]*Bridge
	nextPort uint32
	pmd      *core.PMD
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
	kern := netlinksim.NewKernel()
	pl := ofproto.NewPipeline()
	dp := core.NewDatapath(eng, pl, cfg.opts)
	dp.Encapper = tunnel.NewEncapper(netlinksim.NewCache(kern))
	s := &Switch{
		eng:      eng,
		dp:       dp,
		pipeline: pl,
		kernel:   kern,
		bridges:  make(map[string]*Bridge),
		nextPort: 1,
	}
	s.pmd = dp.NewPMD(cfg.pmdMode, nil)
	s.pmd.Start()
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
	b := &Bridge{sw: s, Name: name, ports: make(map[string]*Port)}
	s.bridges[name] = b
	return b
}

// Bridge returns a bridge by name.
func (s *Switch) Bridge(name string) (*Bridge, bool) {
	b, ok := s.bridges[name]
	return b, ok
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
		FlowRules:      s.pipeline.RuleCount(),
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
	sw    *Switch
	Name  string
	ports map[string]*Port
}

// Port is one datapath port.
type Port struct {
	sw   *Switch
	id   uint32
	name string
	kind string

	nic  *nicsim.NIC
	tap  *vdev.Tap
	vh   *vdev.VhostUser
	veth *vdev.VethPair

	onOutput func([]byte)
}

// ID returns the datapath port number (usable in flow specs).
func (p *Port) ID() uint32 { return p.id }

// IDString formats the port number for flow specs.
func (p *Port) IDString() string { return fmt.Sprint(p.id) }

// Name returns the port name.
func (p *Port) Name() string { return p.name }

// Kind returns the transport kind ("afxdp", "dpdk", "tap", "vhostuser",
// "veth").
func (p *Port) Kind() string { return p.kind }

// attach allocates the next port number, builds the datapath side of the
// port with mk, hands its receive queues to the PMD and registers it on the
// bridge. mk fills in the Port's device and returns what carries the
// switch's output: a NIC's wire, or the queue OnOutput drains.
func (b *Bridge) attach(name, kind string, mk func(p *Port) (core.Port, error)) (*Port, error) {
	s := b.sw
	p := &Port{sw: s, id: s.nextPort, name: name, kind: kind}
	s.nextPort++
	port, err := mk(p)
	if err != nil {
		return nil, fmt.Errorf("ovs: %w", err)
	}
	s.dp.AddPort(port)
	if err := s.dp.DistributeRxqs(port); err != nil {
		return nil, fmt.Errorf("ovs: %w", err)
	}
	if p.nic != nil {
		p.nic.ConnectWire(func(pk *packet.Packet) { p.emit(pk) })
	}
	b.ports[name] = p
	return p, nil
}

// emit hands one frame the switch sent out this port to OnOutput.
func (p *Port) emit(pk *packet.Packet) {
	if p.onOutput != nil {
		p.onOutput(pk.Data)
	}
}

// drain makes q the port's output: whatever the switch pushes into it is
// handed to OnOutput.
func (p *Port) drain(q *vdev.Queue) {
	q.SetWakeup(func() {
		for _, pk := range q.Pop(64) {
			p.emit(pk)
		}
		q.ArmWakeup()
	})
	q.ArmWakeup()
}

// AddAFXDPPort attaches a simulated NIC via AF_XDP: the kernel keeps the
// device (netlink tooling keeps working), an XDP program is loaded through
// the verifier and attached, and per-queue AF_XDP sockets feed the PMD.
func (b *Bridge) AddAFXDPPort(name string, queues int) (*Port, error) {
	s := b.sw
	return b.attach(name, "afxdp", func(p *Port) (core.Port, error) {
		p.nic = nicsim.New(s.eng, nicsim.Config{Name: name, Ifindex: p.id, Queues: max(queues, 1)})
		if _, err := core.AttachDefaultProgram(p.nic); err != nil {
			return nil, err
		}
		if _, err := s.kernel.AddLink(name, "simnic", macFor(p.id), 1500); err != nil {
			return nil, err
		}
		return core.NewAFXDPPort(core.AFXDPPortConfig{ID: p.id, NIC: p.nic, Eng: s.eng}), nil
	})
}

// AddDPDKPort attaches a NIC via DPDK: the device is unbound from the
// kernel (netlink tooling on it stops working, as Table 1 documents).
func (b *Bridge) AddDPDKPort(name string, queues int) (*Port, error) {
	s := b.sw
	return b.attach(name, "dpdk", func(p *Port) (core.Port, error) {
		p.nic = nicsim.New(s.eng, nicsim.Config{Name: name, Ifindex: p.id, Queues: max(queues, 1),
			Offloads: nicsim.Offloads{RxCsum: true, TxCsum: true, TSO: true, RSSHashDeliver: true}})
		// Register then immediately unbind, mirroring dpdk-devbind.
		if _, err := s.kernel.AddLink(name, "simnic", macFor(p.id), 1500); err != nil {
			return nil, err
		}
		if _, err := s.kernel.BindDPDK(name); err != nil {
			return nil, err
		}
		return core.NewDPDKPort(p.id, p.nic), nil
	})
}

// AddTapPort attaches a kernel tap device (VM via QEMU relay).
func (b *Bridge) AddTapPort(name string) (*Port, error) {
	return b.attach(name, "tap", func(p *Port) (core.Port, error) {
		p.tap = vdev.NewTap(name)
		p.drain(p.tap.ToKernel)
		return core.NewTapPort(p.id, p.tap), nil
	})
}

// AddVhostUserPort attaches a vhostuser device (VM via shared-memory
// virtio rings).
func (b *Bridge) AddVhostUserPort(name string) (*Port, error) {
	return b.attach(name, "vhostuser", func(p *Port) (core.Port, error) {
		p.vh = vdev.NewVhostUser(name)
		p.drain(p.vh.ToGuest)
		return core.NewVhostPort(p.id, p.vh), nil
	})
}

// AddVethPort attaches the host end of a veth pair via AF_XDP generic
// mode (Figure 5 path A): Inject delivers frames from the container side,
// OnOutput sees frames the switch sends toward the container.
func (b *Bridge) AddVethPort(name string) (*Port, error) {
	s := b.sw
	return b.attach(name, "veth", func(p *Port) (core.Port, error) {
		if _, err := s.kernel.AddLink(name, "veth", macFor(p.id), 1500); err != nil {
			return nil, err
		}
		p.veth = vdev.NewVethPair(name)
		p.drain(p.veth.AtoB)
		return core.NewVethPort(p.id, s.eng, p.veth, s.eng.NewCPU("softirq-"+name)), nil
	})
}

// Inject delivers a frame into the switch through this port, as if it
// arrived from the wire (AF_XDP/DPDK), the guest (tap/vhostuser), or the
// peer namespace (veth).
func (p *Port) Inject(frame []byte) {
	pk := packet.New(append([]byte(nil), frame...))
	switch p.kind {
	case "afxdp", "dpdk":
		p.nic.Receive(pk)
	case "tap":
		p.tap.FromKernel.Push(pk)
	case "vhostuser":
		p.vh.FromGuest.Push(pk)
	case "veth":
		p.veth.SendB(pk)
	}
}

// OnOutput registers the callback receiving frames the switch sends out
// this port.
func (p *Port) OnOutput(fn func(frame []byte)) { p.onOutput = fn }

// AddFlow parses an ovs-ofctl-style flow specification and installs it.
// See ParseFlow for the supported syntax.
func (b *Bridge) AddFlow(spec string) error {
	rule, err := ParseFlow(spec)
	if err != nil {
		return err
	}
	b.sw.pipeline.AddRule(rule)
	b.sw.dp.FlushFlows() // revalidate cached megaflows
	return nil
}

// MustAddFlow is AddFlow, panicking on parse errors (static flow tables).
func (b *Bridge) MustAddFlow(spec string) {
	if err := b.AddFlow(spec); err != nil {
		panic(err)
	}
}

// FlowRuleCount returns installed OpenFlow rules across all tables.
func (s *Switch) FlowRuleCount() int { return s.pipeline.RuleCount() }

// SetMeterPPS installs (or replaces) meter id as a packet-rate limiter, for
// use with the "meter:N" flow action — the rate-limiting stopgap Section 6
// describes while real QoS is reimplemented in userspace.
func (s *Switch) SetMeterPPS(id uint32, packetsPerSec, burst float64) {
	s.pipeline.SetMeter(id, &ofproto.TokenBucket{
		RatePerSec: packetsPerSec, Burst: burst, PerPacket: true})
}

// SetMeterBPS installs meter id as a bit-rate limiter.
func (s *Switch) SetMeterBPS(id uint32, bitsPerSec, burstBits float64) {
	s.pipeline.SetMeter(id, &ofproto.TokenBucket{
		RatePerSec: bitsPerSec, Burst: burstBits})
}

func macFor(id uint32) [6]byte {
	return [6]byte{0x02, 0x00, 0x5e, byte(id >> 16), byte(id >> 8), byte(id)}
}
