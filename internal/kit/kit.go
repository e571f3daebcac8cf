// Package kit holds the parts every simulated switch is assembled from, and
// is the only code outside internal/core and benchmark/ that knows how a
// NIC, a guest or a veth becomes a datapath port. The testbeds of
// internal/experiments, vswitchd (and through it the public ovs API and the
// CLIs) state their topology — which parts, which port numbers, which CPUs
// are shared — and build nothing themselves (DESIGN.md 4.12).
package kit

import (
	"fmt"

	"ovsxdp/internal/afxdp"
	"ovsxdp/internal/core"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/ebpf"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/kernelsim"
	"ovsxdp/internal/nicsim"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/vdev"
	"ovsxdp/internal/vmsim"
	"ovsxdp/internal/xdp"
)

// Must returns v or panics — testbeds are constructed from compile-time
// kinds, so an error while assembling one is a programming error.
func Must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// Hop is one rule of a loopback pipeline: traffic entering port Hop[0]
// leaves through port Hop[1].
type Hop [2]uint32

// LoopbackPipeline builds the in_port -> output program the loopback and
// request/response beds run, one priority-1 rule per hop.
func LoopbackPipeline(hops ...Hop) *ofproto.Pipeline {
	pl := ofproto.NewPipeline()
	m := flow.NewMaskBuilder().InPort().Build()
	for _, h := range hops {
		pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
			Match:   ofproto.NewMatch(flow.Fields{InPort: h[0]}, m),
			Actions: []ofproto.Action{ofproto.Output(h[1])}})
	}
	return pl
}

// OffloadsFor is what a NIC offers under a driver: AF_XDP sockets see raw
// frames, every other driver ("dpdk", the kernel's) gets checksum, TSO and
// the RSS hash.
func OffloadsFor(driver string) nicsim.Offloads {
	if driver == "afxdp" {
		return nicsim.Offloads{}
	}
	return nicsim.Offloads{RxCsum: true, TxCsum: true, TSO: true, RSSHashDeliver: true}
}

// NICPort makes a NIC port id of a userspace datapath: the DPDK poll-mode
// driver for "dpdk", otherwise AF_XDP sockets behind the default XDP program.
func NICPort(eng *sim.Engine, driver string, id uint32, nic *nicsim.NIC,
	lock afxdp.LockMode, zeroCopy bool) (core.Port, error) {
	if driver == "dpdk" {
		return core.NewDPDKPort(id, nic), nil
	}
	if _, err := core.AttachDefaultProgram(nic); err != nil {
		return nil, err
	}
	return core.NewAFXDPPort(core.AFXDPPortConfig{ID: id, NIC: nic, Eng: eng,
		LockMode: lock, ZeroCopy: zeroCopy}), nil
}

// RingDrops counts what a userspace NIC port lost at its own bounded rings:
// an AF_XDP port's fill, rx and tx rings, and the frames too long for a umem
// chunk either way. A DPDK port drops only at the NIC, which the NIC counts.
func RingDrops(p core.Port) uint64 {
	x, ok := p.(*core.AFXDPPort)
	if !ok {
		return 0
	}
	d := x.TxDrops
	for q := 0; q < x.NumRxQueues(); q++ {
		s := x.XSK(q)
		d += s.RxDropFill + s.RxDropRing + s.RxDropOversize
	}
	return d
}

// Link is a virtual device between the switch and a guest or a container:
// the device's two rings, and the device as a userspace datapath port. A
// kernel datapath attaches to the rings directly (KernelTx, FromPeer).
type Link struct {
	*vdev.Link
	Port *core.LinkPort
}

// NewLink makes dev port id of the given kind ("tap", "vhostuser", "veth" =
// AF_XDP generic mode, Figure 5 path A, or "afpacket"). The kernel half of a
// veth's socket runs on softirq; which veths share a softirq CPU is model,
// so the caller supplies it, and nil for the other kinds.
func NewLink(id uint32, kind string, dev *vdev.Link, softirq *sim.CPU) Link {
	return Link{Link: dev, Port: core.NewLinkPort(id, kind, dev, softirq)}
}

// Drops counts packets lost at the link's rings.
func (l Link) Drops() uint64 { return l.ToPeer.Dropped + l.FromPeer.Dropped }

// KernelTx is the link as a kernel datapath transmit port: an in-kernel
// handoff into the peer-bound ring, no syscall.
func (l Link) KernelTx() dpif.TxPort {
	return dpif.TxPort{PortID: l.Port.ID(), PortName: l.Name,
		Deliver: func(p *packet.Packet) { l.ToPeer.Push(p) }}
}

// Guest is a VM and its attachment to the switch.
type Guest struct {
	Link
	VM *vmsim.VM
}

// NewGuest builds a VM attached as port id through a "vhostuser" device
// ("vhost"+suffix), or through a "tap" ("tap"+suffix) whose QEMU relay runs on
// the relay CPUs: one CPU relays both directions, two give each direction
// its own. Which CPUs the relay shares is model, so the bed supplies them
// (QemuCPUs); cfg.Backend is filled in here.
func NewGuest(eng *sim.Engine, ifType string, id uint32, suffix string, relay []*sim.CPU, cfg vmsim.Config) Guest {
	var dev *vdev.Link
	if ifType == "vhostuser" {
		dev = vdev.NewLink("vhost" + suffix)
		cfg.Backend = &vmsim.VhostUserBackend{Dev: dev}
	} else {
		dev = vdev.NewLink("tap" + suffix)
		cfg.Backend = vmsim.NewTapBackendMQ(eng, dev, relay[0], relay[len(relay)-1])
	}
	return Guest{Link: NewLink(id, ifType, dev, nil), VM: vmsim.New(eng, cfg)}
}

// QemuCPUs creates the named relay CPUs a tap guest needs; a vhostuser
// guest has no relay, so none are made.
func QemuCPUs(eng *sim.Engine, ifType string, names ...string) []*sim.CPU {
	if ifType == "vhostuser" {
		return nil
	}
	cpus := make([]*sim.CPU, len(names))
	for i, n := range names {
		cpus[i] = eng.NewCPU(n)
	}
	return cpus
}

// Attach adds p to the datapath and, on a userspace datapath that has PMD
// threads, spreads p's receive queues over them under the assignment policy
// — without that a running thread never polls the new port.
func Attach(dp dpif.Dpif, p dpif.Port) error {
	if err := dp.PortAdd(p); err != nil {
		return err
	}
	nd, netdev := dp.(*dpif.Netdev)
	polled, ok := p.(core.Port)
	if netdev && ok && len(nd.Datapath().PMDs()) > 0 {
		return nd.Datapath().DistributeRxqs(polled)
	}
	return nil
}

// OpenNetdev opens a userspace datapath with pmds poll threads, attaches the
// polled ports (their receive queues spread over the threads by Attach) and
// the txOnly ones, which are never polled (NIC B of a loopback only
// transmits), and starts the threads. pmds <= 0 means one thread per receive
// queue of the first polled port; under the default round-robin policy that
// places queue i on thread i.
func OpenNetdev(cfg dpif.Config, mode core.Mode, pmds int, polled []core.Port, txOnly ...core.Port) *dpif.Netdev {
	nd := Must(dpif.Open("netdev", cfg)).(*dpif.Netdev)
	if pmds <= 0 {
		pmds = polled[0].NumRxQueues()
	}
	threads := make([]*core.PMD, pmds)
	for i := range threads {
		threads[i] = nd.NewPMD(mode)
	}
	for _, p := range polled {
		if err := Attach(nd, p); err != nil {
			panic(err)
		}
	}
	for _, p := range txOnly {
		if err := nd.PortAdd(p); err != nil {
			panic(err)
		}
	}
	for _, m := range threads {
		m.Start()
	}
	return nd
}

// OpenKernel opens an in-kernel datapath ("netlink" or "ebpf") with its
// transmit ports.
func OpenKernel(typ string, cfg dpif.Config, tx ...dpif.TxPort) *dpif.Netlink {
	nl := Must(dpif.Open(typ, cfg)).(*dpif.Netlink)
	for _, p := range tx {
		if err := nl.PortAdd(p); err != nil {
			panic(err)
		}
	}
	return nl
}

// SoftirqRx starts a NAPI actor on cpu that drains src, stamps each packet
// with the port it arrived on and hands it to process — (*dpif.Netlink).
// Process for a plain receive, or the bed's own step in front of it.
func SoftirqRx(eng *sim.Engine, cpu *sim.CPU, src kernelsim.PollSource, inPort uint32,
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

// XDPRx starts a NAPI actor on cpu that drains src, receive queue q of
// device ifindex, through hook's driver stage: the hook's program decides
// which of v's callbacks gets each packet.
func XDPRx(eng *sim.Engine, cpu *sim.CPU, src kernelsim.PollSource, hook *xdp.Hook, q int, ifindex uint32,
	v *xdp.Verdicts) {
	(&kernelsim.NAPIActor{Eng: eng, CPU: cpu, Src: src,
		Handler: func(cpu *sim.CPU, pkts []*packet.Packet) {
			for _, p := range pkts {
				hook.Receive(cpu, q, p, ifindex, v)
			}
		}}).Start()
}

// AttachRedirect attaches Figure 5 path C's program to hook with a single
// L2 route: frames to dst are redirected to device target (the ToDev
// verdict); any other frame falls back to an AF_XDP socket, of which there
// is none, and is dropped.
func AttachRedirect(hook *xdp.Hook, dst hdr.MAC, target uint32) {
	l2 := ebpf.NewHashMap(8, 4, 1)
	dev := ebpf.NewDevMap(1)
	if err := dev.SetTarget(0, target); err != nil {
		panic(err)
	}
	if err := l2.Update(xdp.MACKey(dst), []byte{0, 0, 0, 0}); err != nil {
		panic(err)
	}
	prog := xdp.NewRedirectToVeth(l2, dev, ebpf.NewXskMap(1))
	if err := prog.Load(); err != nil {
		panic(err)
	}
	if err := hook.Attach(prog); err != nil {
		panic(err)
	}
}

// RedirectRx is a veth host end running path C's program: src drains on
// cpu through a driver-mode hook of its own, and frames to dst are
// redirected to device target, whose transmit is deliver.
func RedirectRx(eng *sim.Engine, cpu *sim.CPU, src kernelsim.PollSource, dst hdr.MAC, target uint32,
	deliver func(*packet.Packet)) {
	hook := xdp.NewHook(xdp.ModelAllQueues, xdp.ModeDriver)
	AttachRedirect(hook, dst, target)
	XDPRx(eng, cpu, src, hook, 0, 0, &xdp.Verdicts{ToDev: func(_ uint32, p *packet.Packet) { deliver(p) }})
}

// Iface is one interface of a switch, as an OVSDB Interface row, the public
// API or a CLI asks for it by type and name: the simulated device, its
// datapath port, and the far side of the device for whoever drives it.
type Iface struct {
	// Type is the interface type the factory was asked for.
	Type string
	// Port is what Attach takes: a core.Port on the userspace datapath, a
	// dpif.TxPort on the kernel ones.
	Port dpif.Port

	nic    *nicsim.NIC // afxdp and dpdk on netdev
	link   Link        // tap, vhostuser and veth on netdev
	inject func(*packet.Packet)
	out    func(*packet.Packet)
}

// ID is the datapath port number.
func (i *Iface) ID() uint32 { return i.Port.ID() }

// Name is the interface name.
func (i *Iface) Name() string { return i.Port.Name() }

// Inject delivers p into the switch through this interface, as if it
// arrived from the wire (afxdp, dpdk), the guest (tap, vhostuser) or the
// peer namespace (veth). On the kernel providers, which have no receive
// context until a bed gives them one, it is Execute on this port.
func (i *Iface) Inject(p *packet.Packet) { i.inject(p) }

// OnOutput registers the hook that receives every packet the switch sends
// out this interface (nil, the default, discards them).
func (i *Iface) OnOutput(fn func(*packet.Packet)) { i.out = fn }

// NewIface is the port factory: it builds the device behind interface type
// ifType ("afxdp", "dpdk", "tap", "vhostuser" or "veth") named name as port
// id of dp, with queues receive queues where the device is a NIC. The
// result is not attached yet; Attach(dp, iface.Port) does that.
func NewIface(dp dpif.Dpif, ifType, name string, id uint32, queues int) (*Iface, error) {
	i := &Iface{Type: ifType}
	emit := func(p *packet.Packet) {
		if i.out != nil {
			i.out(p)
		}
	}
	switch ifType {
	case "afxdp", "dpdk", "tap", "vhostuser", "veth":
	default:
		return nil, fmt.Errorf("kit: unsupported interface type %q", ifType)
	}
	nd, ok := dp.(*dpif.Netdev)
	if !ok {
		// A kernel datapath's vport is a transmit function.
		i.Port = dpif.TxPort{PortID: id, PortName: name, Deliver: emit}
		i.inject = func(p *packet.Packet) { p.InPort = id; dp.Execute(p) }
		return i, nil
	}
	eng := nd.Datapath().Eng
	switch ifType {
	case "afxdp", "dpdk":
		i.nic = nicsim.New(eng, nicsim.Config{Name: name, Ifindex: id, Queues: max(queues, 1),
			Offloads: OffloadsFor(ifType)})
		i.nic.ConnectWire(emit)
		i.inject = func(p *packet.Packet) { i.nic.Receive(p) }
		port, err := NICPort(eng, ifType, id, i.nic, afxdp.LockMutex, false)
		if err != nil {
			return nil, err
		}
		i.Port = port
		return i, nil
	case "veth":
		i.link = NewLink(id, ifType, vdev.NewLink(name), eng.NewCPU("softirq-"+name))
	default:
		i.link = NewLink(id, ifType, vdev.NewLink(name), nil)
	}
	i.Port = i.link.Port
	i.inject = func(p *packet.Packet) { i.link.FromPeer.Push(p) }
	// Nobody sits on the far side, so the switch-to-peer ring is drained
	// into the output hook as it fills.
	q := i.link.ToPeer
	q.SetWakeup(func() {
		for _, p := range q.Pop(64) {
			emit(p)
		}
		q.ArmWakeup()
	})
	q.ArmWakeup()
	return i, nil
}
