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
	"ovsxdp/internal/flow"
	"ovsxdp/internal/kernelsim"
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

// mustOpen opens a registered dpif provider or panics — testbeds are
// constructed from compile-time kinds, so a miss is a programming error.
func mustOpen(name string, cfg dpif.Config) dpif.Dpif {
	d, err := dpif.Open(name, cfg)
	if err != nil {
		panic(err)
	}
	return d
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
	Queues    int // NIC receive queues = PMD threads (Fig 12)
	LinkRate  int64
	Mode      core.Mode // poll / interrupt / non-pmd for AF_XDP-style ports
	Lock      afxdp.LockMode
	ZeroCopy  bool // zero-copy AF_XDP (driver support dependent)
	Opts      core.Options
	// VDev, for PVP: how the VM attaches.
	VDev VDevKind
	// KernelQueues: RSS width for the kernel datapath (hyperthreads).
	KernelQueues int
	Seed         uint64
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
// emc-insert-inv-prob=100` to rerun the stock experiments with the signature
// cache on and probabilistic EMC insertion). nil changes nothing, keeping
// default measured outputs byte-identical. Scenarios that pin their own
// config (corescale's auto-LB arm) set BedConfig.Other directly and are
// unaffected.
var DefaultOther map[string]string

// DefaultBed returns the Section 5.2 defaults.
func DefaultBed(kind DPKind, flows int) BedConfig {
	cfg := BedConfig{
		Kind: kind, Flows: flows, FrameSize: 64, Queues: 1,
		LinkRate: costmodel.LinkRate25G,
		Mode:     core.ModePoll, Lock: afxdp.LockSpinBatched,
		Opts: core.DefaultOptions(), KernelQueues: 12, Seed: 1,
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

// --- the testbed kit -------------------------------------------------------------
//
// Every exhibit's host is assembled from the parts below, and they are the
// only code that knows how a NIC, a guest or a softirq context attaches to
// a userspace or a kernel datapath. A bed states its topology — which
// parts, which port numbers, which CPUs are shared — and nothing else.

// hop is one rule of a loopback pipeline: traffic entering port in leaves
// through port out.
type hop struct{ in, out uint32 }

// loopbackPipeline builds the in_port -> output program the loopback and
// request/response beds run, one priority-1 rule per hop.
func loopbackPipeline(hops ...hop) *ofproto.Pipeline {
	pl := ofproto.NewPipeline()
	m := flow.NewMaskBuilder().InPort().Build()
	for _, h := range hops {
		pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
			Match:   ofproto.NewMatch(flow.Fields{InPort: h.in}, m),
			Actions: []ofproto.Action{ofproto.Output(h.out)}})
	}
	return pl
}

// offloadsFor is what a NIC offers under a datapath kind: AF_XDP sockets
// see raw frames, every other driver gets checksum, TSO and the RSS hash.
func offloadsFor(kind DPKind) nicsim.Offloads {
	if kind == KindAFXDP {
		return nicsim.Offloads{}
	}
	return nicsim.Offloads{RxCsum: true, TxCsum: true, TSO: true, RSSHashDeliver: true}
}

// nicPort attaches a NIC to a userspace datapath as port id: AF_XDP sockets
// behind the default XDP program, or the DPDK poll-mode driver.
func nicPort(eng *sim.Engine, kind DPKind, id uint32, nic *nicsim.NIC,
	lock afxdp.LockMode, zeroCopy bool) core.Port {
	if kind == KindDPDK {
		return core.NewDPDKPort(id, nic)
	}
	if _, err := core.AttachDefaultProgram(nic); err != nil {
		panic(err)
	}
	return core.NewAFXDPPort(core.AFXDPPortConfig{ID: id, NIC: nic, Eng: eng,
		LockMode: lock, ZeroCopy: zeroCopy})
}

// ringDrops counts what a userspace NIC port lost at its own bounded rings:
// an AF_XDP port's fill, rx and tx rings. A DPDK port drops only at the
// NIC, which Bed.Drops already counts.
func ringDrops(p core.Port) uint64 {
	x, ok := p.(*core.AFXDPPort)
	if !ok {
		return 0
	}
	d := x.TxDrops
	for q := 0; q < x.NumRxQueues(); q++ {
		s := x.XSK(q)
		d += s.RxDropFill + s.RxDropRing
	}
	return d
}

// guest is a VM and its attachment to the switch.
type guest struct {
	vm *vmsim.VM
	// port is the attachment as a userspace datapath port.
	port core.Port
	// toGuest and fromGuest are the attachment's two rings as the switch
	// sees them; a kernel datapath attaches to them directly.
	toGuest, fromGuest *vdev.Queue
}

// newGuest builds a VM attached as port id through a vhostuser device
// ("vhost"+suffix), or through a tap ("tap"+suffix) whose QEMU relay runs on
// the relay CPUs: one CPU relays both directions, two give each direction
// its own. Which CPUs the relay shares is model, so the bed supplies them
// (qemuCPUs); cfg.Backend is filled in here.
func newGuest(eng *sim.Engine, vd VDevKind, id uint32, suffix string, relay []*sim.CPU, cfg vmsim.Config) guest {
	var g guest
	if vd == VDevVhost {
		dev := vdev.NewVhostUser("vhost" + suffix)
		cfg.Backend = &vmsim.VhostUserBackend{Dev: dev}
		g = guest{port: core.NewVhostPort(id, dev), toGuest: dev.ToGuest, fromGuest: dev.FromGuest}
	} else {
		tap := vdev.NewTap("tap" + suffix)
		cfg.Backend = vmsim.NewTapBackendMQ(eng, tap, relay[0], relay[len(relay)-1])
		g = guest{port: core.NewTapPort(id, tap), toGuest: tap.ToKernel, fromGuest: tap.FromKernel}
	}
	g.vm = vmsim.New(eng, cfg)
	return g
}

// qemuCPUs creates the named relay CPUs a tap guest needs; a vhostuser
// guest has no relay, so none are made.
func qemuCPUs(eng *sim.Engine, vd VDevKind, names ...string) []*sim.CPU {
	if vd == VDevVhost {
		return nil
	}
	cpus := make([]*sim.CPU, len(names))
	for i, n := range names {
		cpus[i] = eng.NewCPU(n)
	}
	return cpus
}

// drops counts packets lost at the attachment's rings.
func (g guest) drops() uint64 { return g.toGuest.Dropped + g.fromGuest.Dropped }

// kernelTx is the guest as a kernel datapath transmit port: an in-kernel
// handoff into the guest-bound ring, no syscall.
func (g guest) kernelTx() dpif.TxPort {
	return dpif.TxPort{PortID: g.port.ID(), PortName: g.port.Name(),
		Deliver: func(p *packet.Packet) { g.toGuest.Push(p) }}
}

// kernelSrc is the guest's transmissions as a softirq poll source.
func (g guest) kernelSrc() kernelsim.PollSource { return kernelsim.VQueueSource{Q: g.fromGuest} }

// openNetdev opens a userspace datapath, attaches the ports, spreads the
// polled ports' receive queues over pmds poll threads through the
// datapath's assignment layer and starts the threads. txOnly ports are
// attached but never polled (NIC B of a loopback only transmits). pmds <= 0
// means one thread per receive queue of the first polled port; under the
// default round-robin policy that places queue i on thread i.
func openNetdev(cfg dpif.Config, mode core.Mode, pmds int, polled []core.Port, txOnly ...core.Port) *dpif.Netdev {
	nd := mustOpen("netdev", cfg).(*dpif.Netdev)
	for _, ports := range [][]core.Port{polled, txOnly} {
		for _, p := range ports {
			if err := nd.PortAdd(p); err != nil {
				panic(err)
			}
		}
	}
	if pmds <= 0 {
		pmds = polled[0].NumRxQueues()
	}
	threads := make([]*core.PMD, pmds)
	for i := range threads {
		threads[i] = nd.NewPMD(mode)
	}
	for _, p := range polled {
		if err := nd.Datapath().DistributeRxqs(p); err != nil {
			panic(err)
		}
	}
	for _, m := range threads {
		m.Start()
	}
	return nd
}

// openKernel opens an in-kernel datapath ("netlink" or "ebpf") with its
// transmit ports.
func openKernel(typ string, cfg dpif.Config, tx ...dpif.TxPort) *dpif.Netlink {
	nl := mustOpen(typ, cfg).(*dpif.Netlink)
	for _, p := range tx {
		if err := nl.PortAdd(p); err != nil {
			panic(err)
		}
	}
	return nl
}

// softirqRx starts a NAPI actor on cpu that drains src, stamps each packet
// with the port it arrived on and hands it to process — (*dpif.Netlink).
// Process for a plain receive, or the bed's own step in front of it.
func softirqRx(eng *sim.Engine, cpu *sim.CPU, src kernelsim.PollSource, inPort uint32,
	process func(*sim.CPU, *packet.Packet)) *kernelsim.NAPIActor {
	a := &kernelsim.NAPIActor{Eng: eng, CPU: cpu, Src: src,
		Handler: func(cpu *sim.CPU, pkts []*packet.Packet) {
			for _, p := range pkts {
				p.InPort = inPort
				process(cpu, p)
			}
		}}
	a.Start()
	return a
}

// --- the loopback beds -----------------------------------------------------------

// newLoopbackBed builds what every loopback shares: the engine, NIC A fed
// by the generator, and NIC B's wire counting deliveries.
func newLoopbackBed(seed uint64, queues int, linkRate int64, offloads nicsim.Offloads, flows, frameSize int) *Bed {
	eng := sim.NewEngine(seed)
	bed := &Bed{Eng: eng}
	bed.NICA = nicsim.New(eng, nicsim.Config{Name: "p0", Ifindex: 1, Queues: queues,
		LinkRate: linkRate, Offloads: offloads})
	bed.NICB = nicsim.New(eng, nicsim.Config{Name: "p1", Ifindex: 2, Queues: queues,
		LinkRate: linkRate, Offloads: offloads})
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
	return newLoopbackBed(cfg.Seed, queues, cfg.LinkRate, offloadsFor(cfg.Kind), cfg.Flows, cfg.FrameSize)
}

// kernelLoopback puts an in-kernel datapath under the bed: NIC B is
// transmit port 2 beside the bed's own tx ports, and one ksoftirqd per
// NIC A queue receives on port 1. The actors are kept so scenarios can
// park and resume them.
func (b *Bed) kernelLoopback(typ string, cfg dpif.Config, flows int, tx ...dpif.TxPort) *dpif.Netlink {
	nl := openKernel(typ, cfg, append([]dpif.TxPort{
		{PortID: 2, PortName: "p1", Deliver: b.NICB.Transmit}}, tx...)...)
	b.DP = nl
	nl.SetActiveCPUs(b.activeSoftirqs(flows))
	for q := 0; q < b.NICA.NumQueues(); q++ {
		cpu := b.Eng.NewCPU(fmt.Sprintf("ksoftirqd/%d", q))
		b.Actors = append(b.Actors, softirqRx(b.Eng, cpu,
			kernelsim.NICQueueSource{Q: b.NICA.Queue(q)}, 1, nl.Process))
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
	portA := nicPort(b.Eng, cfg.Kind, 1, b.NICA, cfg.Lock, cfg.ZeroCopy)
	portB := nicPort(b.Eng, cfg.Kind, 2, b.NICB, cfg.Lock, cfg.ZeroCopy)
	b.dropFns = append(b.dropFns, func() uint64 { return ringDrops(portA) + ringDrops(portB) })
	mode := cfg.Mode
	if cfg.Kind == KindDPDK {
		mode = core.ModePoll // a poll-mode driver has no other
	}
	b.DP = openNetdev(dpif.Config{Eng: b.Eng, Pipeline: pl, Options: cfg.Opts, Other: cfg.Other},
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
		pipeline = loopbackPipeline(hop{1, 2}, hop{2, 1})
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
	pl := loopbackPipeline(hop{1, 3}, hop{3, 2})
	// The PVP loopback guest runs a poll-mode reflector (testpmd-style),
	// as the paper's VM does, behind a multiqueue tap relay.
	vm := newGuest(eng, cfg.VDev, 3, "0", qemuCPUs(eng, cfg.VDev, "qemu-rx", "qemu-tx"),
		vmsim.Config{Name: "vm0", FastReflector: true})
	bed.dropFns = append(bed.dropFns, vm.drops)

	switch cfg.Kind {
	case KindKernel:
		nl := bed.kernelLoopback("netlink",
			dpif.Config{Eng: eng, Pipeline: pl, Other: cfg.Other}, cfg.Flows, vm.kernelTx())
		// Traffic leaving the VM re-enters the kernel datapath as a new
		// arrival (the reset clears the port stamp with everything else).
		softirqRx(eng, eng.NewCPU("ksoftirqd/tap"), vm.kernelSrc(), 3,
			func(cpu *sim.CPU, p *packet.Packet) { p.ResetMetadata(); p.InPort = 3; nl.Process(cpu, p) })
	case KindAFXDP, KindDPDK:
		bed.netdevLoopback(cfg, pl, vm.port)
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
func NewPCPBed(mode PCPMode, flows int, seed uint64) *Bed {
	bed := newLoopbackBed(seed, 1, costmodel.LinkRate25G, nicsim.Offloads{}, flows, 64)
	eng := bed.Eng
	veth := vdev.NewVethPair("veth0")
	containersim.New(eng, containersim.Config{Name: "c0", Veth: veth, FastPath: true})
	bed.dropFns = append(bed.dropFns,
		func() uint64 { return veth.AtoB.Dropped + veth.BtoA.Dropped })
	pl := loopbackPipeline(hop{1, 3}, hop{3, 2})

	switch mode {
	case PCPKernel:
		nl := bed.kernelLoopback("netlink", dpif.Config{Eng: eng, Pipeline: pl}, flows,
			dpif.TxPort{PortID: 3, PortName: "veth0",
				Deliver: func(p *packet.Packet) { veth.SendA(p) }})
		// Container output re-enters the datapath as a new arrival.
		softirqRx(eng, eng.NewCPU("ksoftirqd/veth"), kernelsim.VQueueSource{Q: veth.BtoA}, 3,
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
			Src: kernelsim.NICQueueSource{Q: bed.NICA.Queue(0)},
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
						veth.SendA(p)
					}
				}
			}}).Start()
		// veth return side: in-kernel XDP redirect to NIC B.
		softirq2 := eng.NewCPU("softirq/veth")
		(&kernelsim.NAPIActor{Eng: eng, CPU: softirq2,
			Src: kernelsim.VQueueSource{Q: veth.BtoA},
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
			&dpdkContainerPort{id: 3, veth: veth, eng: eng})
	}
	return bed
}

// dpdkContainerPort reaches a container through AF_PACKET injection: every
// packet pays a user/kernel crossing plus copies in each direction.
type dpdkContainerPort struct {
	id   uint32
	veth *vdev.VethPair
	eng  *sim.Engine
}

func (p *dpdkContainerPort) ID() uint32       { return p.id }
func (p *dpdkContainerPort) Name() string     { return "dpdk-afpacket" }
func (p *dpdkContainerPort) NumRxQueues() int { return 1 }
func (p *dpdkContainerPort) NumTxQueues() int { return 1 }

func (p *dpdkContainerPort) Rx(cpu *sim.CPU, _, max int) []*packet.Packet {
	pkts := p.veth.BtoA.Pop(max)
	for _, pkt := range pkts {
		pkt.InPort = p.id
		// Under load the AF_PACKET ring amortizes the crossing across a
		// batch; latency tests see the full per-wakeup cost instead.
		cpu.Consume(sim.System, costmodel.DPDKContainerCrossing/16+costmodel.CopyCost(len(pkt.Data)))
	}
	return pkts
}

func (p *dpdkContainerPort) Tx(cpu *sim.CPU, _ int, pkt *packet.Packet) {
	cpu.Consume(sim.System, costmodel.DPDKContainerCrossing/16+costmodel.CopyCost(len(pkt.Data)))
	p.veth.SendA(pkt)
}

func (p *dpdkContainerPort) Flush(*sim.CPU, int) {}

func (p *dpdkContainerPort) Arm(_ int, fn func()) {
	p.veth.BtoA.SetWakeup(fn)
	p.veth.BtoA.ArmWakeup()
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
