// Package experiments wires the simulated substrates into the paper's
// testbeds and reproduces every table and figure of the evaluation
// (Section 5). Each experiment builds fresh testbeds per trial, runs a
// warmup, measures a steady-state window, and reports paper-vs-measured.
package experiments

import (
	"fmt"

	"ovsxdp/internal/afxdp"
	"ovsxdp/internal/containersim"
	"ovsxdp/internal/core"
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/ebpf"
	"ovsxdp/internal/kernelsim"
	"ovsxdp/internal/kit"
	"ovsxdp/internal/measure"
	"ovsxdp/internal/nicsim"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/trafficgen"
	"ovsxdp/internal/vdev"
	"ovsxdp/internal/vmsim"
	"ovsxdp/internal/xdp"
)

// DPKind selects the datapath under test.
type DPKind int

// Datapath kinds.
const (
	KindKernel DPKind = iota
	KindAFXDP
	KindDPDK
	KindEBPF // kernel datapath re-implemented in sandboxed eBPF (Fig 2)
)

// String names the kind.
func (k DPKind) String() string {
	switch k {
	case KindKernel:
		return "kernel"
	case KindAFXDP:
		return "afxdp"
	case KindDPDK:
		return "dpdk"
	default:
		return "ebpf"
	}
}

// DpifType maps the kind to its dpif provider registry name.
func (k DPKind) DpifType() string {
	switch k {
	case KindKernel:
		return "netlink"
	case KindEBPF:
		return "ebpf"
	default:
		return "netdev"
	}
}

// VDevKind selects the VM device for PVP scenarios.
type VDevKind int

// Virtual device kinds.
const (
	VDevTap VDevKind = iota
	VDevVhost
)

// String names the kind.
func (k VDevKind) String() string {
	if k == VDevTap {
		return "tap"
	}
	return "vhostuser"
}

// BedConfig parameterizes a loopback testbed.
type BedConfig struct {
	Kind      DPKind
	Flows     int
	FrameSize int
	Queues    int       // NIC receive queues = PMD threads (Fig 12)
	Mode      core.Mode // poll / interrupt / non-pmd for AF_XDP-style ports
	Lock      afxdp.LockMode
	ZeroCopy  bool // zero-copy AF_XDP (driver support dependent)
	Opts      core.Options
	// VDev, for PVP: how the VM attaches.
	VDev VDevKind
	// KernelQueues: RSS width for the kernel datapath (hyperthreads).
	KernelQueues int
	// Pipeline overrides the default port-forwarding pipeline (nil keeps
	// it). The cache-hierarchy sweep uses this to install a multi-subtable
	// rule set so the megaflow classifier has real tuple-space work to do.
	Pipeline *ofproto.Pipeline
	// PMDs is the number of poll threads for userspace datapaths; zero
	// keeps the legacy one-thread-per-NIC-queue wiring. Receive queues
	// are distributed over the threads by the assignment layer, so PMDs
	// may be smaller than Queues (the corescale sweep's whole point).
	PMDs int
	// Other carries ovs-vsctl-style other_config keys applied through
	// dpif.SetConfig at open — the key/value route to every tunable the
	// legacy struct fields cover.
	Other map[string]string
	// RSSWeights, when set, programs NIC A's RSS indirection table with
	// one weight per queue (nicsim.WeightedIndirection), skewing traffic
	// deterministically across receive queues. nil keeps the identity
	// hash spread.
	RSSWeights []int
}

// DefaultOther overlays ovs-vsctl-style other_config keys onto every bed
// DefaultBed builds (`ovsbench -o key=value`, e.g. `-o smc-enable=true -o
// emc-enable=false` to rerun the stock experiments through the signature
// cache). nil changes nothing, keeping default measured outputs
// byte-identical. Scenarios that pin their own
// config (corescale's auto-LB arm) set BedConfig.Other directly and are
// unaffected.
var DefaultOther map[string]string

// DefaultBed returns the Section 5.2 defaults.
func DefaultBed(kind DPKind, flows int) BedConfig {
	cfg := BedConfig{
		Kind: kind, Flows: flows, FrameSize: 64, Queues: 1,
		Mode: core.ModePoll, Lock: afxdp.LockSpinBatched,
		Opts: core.DefaultOptions(), KernelQueues: 12,
	}
	cfg.Other = DefaultOther
	return cfg
}

// Bed is a built loopback testbed: generator -> NIC A -> datapath ->
// NIC B -> delivered counter.
type Bed struct {
	Eng       *sim.Engine
	Gen       *trafficgen.UDPGen
	NICA      *nicsim.NIC
	NICB      *nicsim.NIC
	Delivered uint64

	// DP is the datapath under test, reached through the dpif provider
	// seam — the bed never needs to know which implementation it drives.
	DP dpif.Dpif

	// Actors holds the kernel datapath's NAPI softirq actors so scenarios
	// (restart/recovery) can stop and resume them. Empty for userspace
	// datapaths, whose PMD threads are reachable via DP.
	Actors []*kernelsim.NAPIActor

	dropFns []func() uint64
}

// Drops sums packet losses at every bounded queue in the bed.
func (b *Bed) Drops() uint64 {
	total := b.NICA.RxDropsTotal() + b.NICB.RxDropsTotal()
	for _, fn := range b.dropFns {
		total += fn()
	}
	return total
}

// --- the loopback beds -----------------------------------------------------------

// bedSeed seeds every loopback bed's engine: an exhibit is one deterministic
// run, and the benchmark's seeds reach only its own generators.
const bedSeed = 1

// newLoopbackBed builds what every loopback shares: the engine, NIC A fed
// by the generator, and NIC B's wire counting deliveries, on the Section 5.2
// testbed's 25G links.
func newLoopbackBed(queues int, offloads nicsim.Offloads, flows, frameSize int) *Bed {
	eng := sim.NewEngine(bedSeed)
	bed := &Bed{Eng: eng}
	bed.NICA = nicsim.New(eng, nicsim.Config{Name: "p0", Ifindex: 1, Queues: queues,
		LinkRate: costmodel.LinkRate25G, Offloads: offloads})
	bed.NICB = nicsim.New(eng, nicsim.Config{Name: "p1", Ifindex: 2, Queues: queues,
		LinkRate: costmodel.LinkRate25G, Offloads: offloads})
	bed.NICB.ConnectWire(func(p *packet.Packet) { bed.Delivered++; p.Release() })
	bed.Gen = trafficgen.NewUDPGen(eng, flows, frameSize,
		func(p *packet.Packet) { bed.NICA.Receive(p) })
	return bed
}

// newConfiguredBed is newLoopbackBed for a BedConfig: the kernel paths
// spread over KernelQueues RSS queues, the userspace ones over Queues.
func newConfiguredBed(cfg BedConfig) *Bed {
	queues := cfg.Queues
	if cfg.Kind == KindKernel || cfg.Kind == KindEBPF {
		queues = cfg.KernelQueues
	}
	return newLoopbackBed(queues, kit.OffloadsFor(cfg.Kind.String()), cfg.Flows, cfg.FrameSize)
}

// kernelLoopback puts an in-kernel datapath under the bed: NIC B is
// transmit port 2 beside the bed's own tx ports, and one ksoftirqd per
// NIC A queue receives on port 1. The actors are kept so scenarios can
// park and resume them.
func (b *Bed) kernelLoopback(typ string, cfg dpif.Config, flows int, tx ...dpif.TxPort) *dpif.Netlink {
	nl := kit.OpenKernel(typ, cfg, append([]dpif.TxPort{
		{PortID: 2, PortName: "p1", Deliver: b.NICB.Transmit}}, tx...)...)
	b.DP = nl
	nl.Kernel().ActiveCPUs = b.activeSoftirqs(flows)
	for q := 0; q < b.NICA.NumQueues(); q++ {
		cpu := b.Eng.NewCPU(fmt.Sprintf("ksoftirqd/%d", q))
		b.Actors = append(b.Actors, kit.SoftirqRx(b.Eng, cpu,
			b.NICA.Queue(q), 1, nl.Process))
	}
	return nl
}

// activeSoftirqs is the kernel datapath's SMT-contention probe: how many
// NIC A queues RSS has spread traffic over, frozen once the spread of a
// multi-flow run is known.
func (b *Bed) activeSoftirqs(flows int) func() int {
	active := 0
	return func() int {
		if active == 0 {
			n := 0
			for q := 0; q < b.NICA.NumQueues(); q++ {
				if b.NICA.Queue(q).RxPackets > 0 {
					n++
				}
			}
			if n == 0 {
				n = 1
			}
			if flows > 1 {
				active = n
			}
			return n
		}
		return active
	}
}

// netdevLoopback puts a userspace datapath under the bed: NIC A is polled
// port 1, NIC B transmit-only port 2, both attached the way cfg.Kind says,
// and the bed's extra ports are polled after NIC A.
func (b *Bed) netdevLoopback(cfg BedConfig, pl *ofproto.Pipeline, extra ...core.Port) {
	portA := kit.Must(kit.NICPort(b.Eng, cfg.Kind.String(), 1, b.NICA, cfg.Lock, cfg.ZeroCopy))
	portB := kit.Must(kit.NICPort(b.Eng, cfg.Kind.String(), 2, b.NICB, cfg.Lock, cfg.ZeroCopy))
	b.dropFns = append(b.dropFns, func() uint64 { return kit.RingDrops(portA) + kit.RingDrops(portB) })
	mode := cfg.Mode
	if cfg.Kind == KindDPDK {
		mode = core.ModePoll // a poll-mode driver has no other
	}
	b.DP = kit.OpenNetdev(dpif.Config{Eng: b.Eng, Pipeline: pl, Options: cfg.Opts, Other: cfg.Other},
		mode, cfg.PMDs, append([]core.Port{portA}, extra...), portB)
}

// NewP2PBed builds the Figure 9(a) physical-to-physical loopback.
func NewP2PBed(cfg BedConfig) *Bed {
	bed := newConfiguredBed(cfg)
	if len(cfg.RSSWeights) > 0 {
		if err := bed.NICA.SetRSSIndirection(nicsim.WeightedIndirection(cfg.RSSWeights)); err != nil {
			panic(err)
		}
	}
	pipeline := cfg.Pipeline
	if pipeline == nil {
		pipeline = kit.LoopbackPipeline(kit.Hop{1, 2}, kit.Hop{2, 1})
	}
	switch cfg.Kind {
	case KindKernel, KindEBPF:
		bed.kernelLoopback(cfg.Kind.DpifType(),
			dpif.Config{Eng: bed.Eng, Pipeline: pipeline, Other: cfg.Other}, cfg.Flows)
	default:
		bed.netdevLoopback(cfg, pipeline)
	}
	return bed
}

// NewPVPBed builds the Figure 9(b) physical-VM-physical loopback: packets
// enter NIC A (port 1), go to a reflecting VM (port 3), and come back out
// NIC B (port 2).
func NewPVPBed(cfg BedConfig) *Bed {
	bed := newConfiguredBed(cfg)
	eng := bed.Eng
	pl := kit.LoopbackPipeline(kit.Hop{1, 3}, kit.Hop{3, 2})
	// The PVP loopback guest runs a poll-mode reflector (testpmd-style),
	// as the paper's VM does, behind a multiqueue tap relay.
	vm := kit.NewGuest(eng, cfg.VDev.String(), 3, "0", kit.QemuCPUs(eng, cfg.VDev.String(), "qemu-rx", "qemu-tx"),
		vmsim.Config{Name: "vm0", FastReflector: true})
	bed.dropFns = append(bed.dropFns, vm.Drops)

	switch cfg.Kind {
	case KindKernel:
		nl := bed.kernelLoopback("netlink",
			dpif.Config{Eng: eng, Pipeline: pl, Other: cfg.Other}, cfg.Flows, vm.KernelTx())
		// Traffic leaving the VM re-enters the kernel datapath as a new
		// arrival (the reset clears the port stamp with everything else).
		kit.SoftirqRx(eng, eng.NewCPU("ksoftirqd/tap"), vm.FromPeer, 3,
			func(cpu *sim.CPU, p *packet.Packet) { p.ResetMetadata(); p.InPort = 3; nl.Process(cpu, p) })
	case KindAFXDP, KindDPDK:
		bed.netdevLoopback(cfg, pl, vm.Port)
	}
	return bed
}

// PCPMode selects the container attachment for the PCP bed.
type PCPMode int

// Container attachment modes (Figure 9c's three bars).
const (
	PCPKernel     PCPMode = iota // in-kernel datapath + veth
	PCPAFXDPRedir                // XDP program redirects NIC<->veth (path C)
	PCPDPDK                      // DPDK + AF_PACKET container crossing
)

// String names the mode.
func (m PCPMode) String() string {
	switch m {
	case PCPKernel:
		return "kernel"
	case PCPAFXDPRedir:
		return "afxdp-xdp-redirect"
	default:
		return "dpdk"
	}
}

// NewPCPBed builds the Figure 9(c) physical-container-physical loopback:
// NIC A (port 1) -> container veth (port 3) -> NIC B (port 2).
func NewPCPBed(mode PCPMode, flows int) *Bed {
	bed := newLoopbackBed(1, nicsim.Offloads{}, flows, 64)
	eng := bed.Eng
	veth := vdev.NewLink("veth0")
	containersim.New(eng, containersim.Config{Name: "c0", Veth: veth, FastPath: true})
	bed.dropFns = append(bed.dropFns,
		func() uint64 { return veth.ToPeer.Dropped + veth.FromPeer.Dropped })
	pl := kit.LoopbackPipeline(kit.Hop{1, 3}, kit.Hop{3, 2})

	switch mode {
	case PCPKernel:
		nl := bed.kernelLoopback("netlink", dpif.Config{Eng: eng, Pipeline: pl}, flows,
			dpif.TxPort{PortID: 3, PortName: "veth0",
				Deliver: func(p *packet.Packet) { veth.ToPeer.Push(p) }})
		// Container output re-enters the datapath as a new arrival.
		kit.SoftirqRx(eng, eng.NewCPU("ksoftirqd/veth"), veth.FromPeer, 3,
			func(cpu *sim.CPU, p *packet.Packet) { p.ResetMetadata(); p.InPort = 3; nl.Process(cpu, p) })

	case PCPAFXDPRedir:
		// Figure 5 path C: the XDP program on NIC A redirects container
		// traffic straight to the veth; the container's return traffic
		// is picked up by a veth-side XDP program that transmits NIC B.
		l2 := ebpf.NewHashMap(8, 4, 128)
		dev := ebpf.NewDevMap(8)
		xskMap := ebpf.NewXskMap(8)
		if err := dev.SetTarget(0, 3); err != nil {
			panic(err)
		}
		// The generator's destination MAC maps to devmap slot 0.
		genDst := [6]byte{0x02, 0xbb, 0, 0, 0, 1}
		if err := l2.Update(xdp.MACKey(genDst), []byte{0, 0, 0, 0}); err != nil {
			panic(err)
		}
		prog := xdp.NewRedirectToVeth(l2, dev, xskMap)
		if err := prog.Load(); err != nil {
			panic(err)
		}
		if err := bed.NICA.Hook.Attach(prog); err != nil {
			panic(err)
		}
		softirq := eng.NewCPU("softirq/0")
		(&kernelsim.NAPIActor{Eng: eng, CPU: softirq,
			Src: bed.NICA.Queue(0),
			Handler: func(cpu *sim.CPU, pkts []*packet.Packet) {
				for _, p := range pkts {
					cpu.Consume(sim.Softirq, costmodel.XDPDriverOverhead)
					res, cost, err := bed.NICA.Hook.Run(0, p.Data, 1)
					cpu.Consume(sim.Softirq, cost)
					if err != nil {
						continue
					}
					if res.Action == ebpf.XDPRedirect {
						cpu.Consume(sim.Softirq, costmodel.XDPRedirectVeth)
						veth.ToPeer.Push(p)
					}
				}
			}}).Start()
		// veth return side: in-kernel XDP redirect to NIC B.
		softirq2 := eng.NewCPU("softirq/veth")
		(&kernelsim.NAPIActor{Eng: eng, CPU: softirq2,
			Src: veth.FromPeer,
			Handler: func(cpu *sim.CPU, pkts []*packet.Packet) {
				for _, p := range pkts {
					cpu.Consume(sim.Softirq, costmodel.XDPDriverOverhead+costmodel.XDPRedirectVeth)
					bed.NICB.Transmit(p)
				}
			}}).Start()

	case PCPDPDK:
		// Container access via AF_PACKET: extra user/kernel crossing
		// each way (Section 5.3's explanation of DPDK's latency).
		bed.netdevLoopback(BedConfig{Kind: KindDPDK, Opts: core.DefaultOptions(), PMDs: 1}, pl,
			kit.NewLink(3, "afpacket", veth, nil).Port)
	}
	return bed
}

// RunProbe drives a bed at ratePPS with a warmup then measures a window,
// returning the delivery/drop/CPU numbers.
func RunProbe(bed *Bed, ratePPS float64, warmup, window sim.Time) measure.ProbeResult {
	bed.Gen.Run(ratePPS, warmup+window)

	bed.Eng.RunUntil(warmup)
	for _, c := range bed.Eng.CPUs() {
		c.ResetAccounting()
	}
	sentBefore := bed.Gen.Sent
	deliveredBefore := bed.Delivered
	dropsBefore := bed.Drops()

	bed.Eng.RunUntil(warmup + window)
	// Allow in-flight packets to drain briefly (not counted as offered).
	bed.Eng.RunUntil(warmup + window + 200*sim.Microsecond)

	offered := bed.Gen.Sent - sentBefore
	delivered := bed.Delivered - deliveredBefore
	drops := bed.Drops() - dropsBefore
	usage := bed.Eng.CPUReport(window + 200*sim.Microsecond)
	return measure.ProbeResult{Offered: offered, Delivered: delivered, Dropped: drops, Usage: usage}
}
