package experiments

import (
	"ovsxdp/internal/afxdp"
	"ovsxdp/internal/containersim"
	"ovsxdp/internal/core"
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/kernelsim"
	"ovsxdp/internal/kit"
	"ovsxdp/internal/nicsim"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/trafficgen"
	"ovsxdp/internal/vdev"
	"ovsxdp/internal/vmsim"
)

// Figure 10: netperf TCP_RR between a VM on one host and a server on the
// other; Figure 11: TCP_RR between two containers on one host.
//
// Latency structure: fixed path costs come from the real components (PMD
// poll gaps, NIC interrupt moderation with exponential jitter, ring hops);
// endpoint process wakeups are sampled log-normally, since netperf's
// client/server block in recv() between transactions.

func init() {
	register(Experiment{ID: "fig10", Title: "Inter-host VM latency (Figure 10)", Run: runFig10})
	register(Experiment{ID: "fig11", Title: "Intra-host container latency (Figure 11)", Run: runFig11})
}

// wakeupSampler models a blocked process being scheduled: a log-normal
// around p50 with tail sigma.
func wakeupSampler(eng *sim.Engine, p50 sim.Time, sigma float64) func() sim.Time {
	rnd := eng.Rand().Fork()
	mu := 0.0 // ln(scale) handled by multiplying p50
	return func() sim.Time {
		f := rnd.LogNormal(mu, sigma)
		return sim.Time(float64(p50) * f)
	}
}

// vmRRBed wires: client VM on host A <-> OVS datapath <-> uplink NIC <->
// wire <-> server host B (plain kernel endpoint).
type vmRRBed struct {
	eng *sim.Engine
	rr  *trafficgen.RR
}

func newVMRRBed(kind DPKind, vd VDevKind, transactions int, seed uint64) *vmRRBed {
	eng := sim.NewEngine(seed)
	bed := &vmRRBed{eng: eng}

	nicB := nicsim.New(eng, nicsim.Config{Name: "uplink", Ifindex: 2, Queues: 1,
		LinkRate: costmodel.LinkRate25G,
		Offloads: nicsim.Offloads{TxCsum: kind != KindAFXDP, RxCsum: kind != KindAFXDP}})

	// Guest client and the endpoints' wakeup samplers: netperf blocks in
	// recv() between transactions, so each message pays a scheduler
	// wakeup (~9us median on the paper's Xeons).
	clientWake := wakeupSampler(eng, 9*sim.Microsecond, 0.30)
	serverWake := wakeupSampler(eng, 9*sim.Microsecond, 0.30)
	// Virtio completion notification into the guest: a lightweight
	// eventfd/irqfd for vhostuser, the full QEMU emulation path for tap.
	notifyP50 := sim.Time(3500)
	if vd == VDevTap {
		notifyP50 = 13 * sim.Microsecond
	}
	vmNotify := wakeupSampler(eng, notifyP50, 0.30)
	// The in-kernel datapath's work is deferred to ksoftirqd when the
	// packet arrives from process context, adding a scheduling delay
	// with a tail (part of the kernel path's P99 spread).
	softirqWake := wakeupSampler(eng, 4*sim.Microsecond, 0.60)
	var sc kernelsim.SocketCosts

	var rr *trafficgen.RR

	// Server host B: attached to the far end of the wire; replies come
	// back into nicB after wire delay.
	serverCPU := eng.NewCPU("hostB")
	nicB.ConnectWire(func(p *packet.Packet) {
		// Server host NIC interrupt + stack + netserver wakeup.
		irq := costmodel.InterruptLatencyMean/2 +
			sim.Time(eng.Rand().Exp(float64(costmodel.InterruptLatencyMean/2)))
		eng.Schedule(irq, func() {
			serverCPU.Consume(sim.Softirq, sc.SoftirqRxCost(len(p.Data)))
			eng.Schedule(serverWake(), func() { rr.OnRequestArrived(p) })
		})
	})

	// Host A: the client VM is port 3, the uplink port 2.
	client := kit.NewGuest(eng, vd.String(), 3, "0", kit.QemuCPUs(eng, vd.String(), "qemu"), vmsim.Config{Name: "client",
		OnPacket: func(vm *vmsim.VM, p *packet.Packet) {
			eng.Schedule(vmNotify()+clientWake(), func() { rr.OnResponseArrived(p) })
		}})
	dcfg := dpif.Config{Eng: eng, Pipeline: kit.LoopbackPipeline(kit.Hop{3, 2}, kit.Hop{2, 3}),
		Options: core.DefaultOptions()}
	if kind == KindKernel {
		nl := kit.OpenKernel("netlink", dcfg, client.KernelTx(),
			dpif.TxPort{PortID: 2, PortName: "uplink", Deliver: nicB.Transmit})
		cpu := eng.NewCPU("ksoftirqd")
		deferred := func(cpu *sim.CPU, p *packet.Packet) {
			eng.Schedule(softirqWake(), func() { nl.Process(cpu, p) })
		}
		kit.SoftirqRx(eng, cpu, client.FromPeer, 3, deferred)
		kit.SoftirqRx(eng, cpu, nicB.Queue(0), 2, deferred)
	} else {
		// The AF_XDP uplink's umem pool is mutex-locked: the golden
		// latencies are pinned to that cost.
		uplink := kit.Must(kit.NICPort(eng, kind.String(), 2, nicB, afxdp.LockMutex, false))
		kit.OpenNetdev(dcfg, core.ModePoll, 1, []core.Port{uplink, client.Port})
	}

	rr = trafficgen.NewRR(trafficgen.RRConfig{
		Eng: eng, Transactions: transactions,
		SrcMAC: hdr.MAC{2, 0, 0, 0, 0, 1}, DstMAC: hdr.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: hdr.MakeIP4(10, 0, 0, 1), DstIP: hdr.MakeIP4(10, 0, 0, 2),
		SrcPort: 40000, DstPort: 12865,
		SendRequest: client.VM.Transmit,
		SendResponse: func(p *packet.Packet) {
			// Server transmit: stack tx + wire back into nicB.
			serverCPU.Consume(sim.System, sc.SendCost(len(p.Data)))
			eng.Schedule(costmodel.WireAndNIC, func() { nicB.Receive(p) })
		},
		OnDone: eng.Stop, // busy-poll PMDs never drain the event queue
	})
	bed.rr = rr
	return bed
}

func runFig10(p Profile) *Report {
	r := &Report{ID: "fig10", Title: "TCP_RR latency, host to VM across hosts (us)"}
	cases := []struct {
		kind          DPKind
		vd            VDevKind
		p50, p90, p99 float64 // paper, microseconds
	}{
		{KindKernel, VDevTap, 58, 68, 94},
		{KindAFXDP, VDevVhost, 39, 41, 53},
		{KindDPDK, VDevVhost, 36, 38, 45},
	}
	for _, c := range cases {
		bed := newVMRRBed(c.kind, c.vd, p.RRCount, 11)
		bed.rr.Start()
		bed.eng.Run()
		s := bed.rr.Latencies.Summarize()
		name := c.kind.String()
		r.Add(name+" P50", s.P50/1e3, c.p50, "us")
		r.Add(name+" P90", s.P90/1e3, c.p90, "us")
		r.Add(name+" P99", s.P99/1e3, c.p99, "us")
		r.Add(name+" kTPS", bed.rr.TransactionsPerSec()/1e3, 1e3/c.p50, "k/s")
	}
	r.AddNote("shape: kernel slowest with the widest tail; AF_XDP trails DPDK by a few us")
	return r
}

// The Figure 11 client's and server's MACs.
var (
	rrClientMAC = hdr.MAC{2, 0, 0, 0, 0, 1}
	rrServerMAC = hdr.MAC{2, 0, 0, 0, 0, 2}
)

// containerRRBed wires two containers through one of the Figure 11
// datapaths on a single host.
type containerRRBed struct {
	eng *sim.Engine
	rr  *trafficgen.RR
}

func newContainerRRBed(mode PCPMode, transactions int, seed uint64) *containerRRBed {
	eng := sim.NewEngine(seed)
	bed := &containerRRBed{eng: eng}

	vethC := vdev.NewLink("veth-client")
	vethS := vdev.NewLink("veth-server")
	clientWake := wakeupSampler(eng, 7*sim.Microsecond, 0.35)
	serverWake := wakeupSampler(eng, 7*sim.Microsecond, 0.35)

	var rr *trafficgen.RR
	client := containersim.New(eng, containersim.Config{Name: "client", Veth: vethC,
		OnPacket: func(c *containersim.Container, p *packet.Packet) {
			eng.Schedule(clientWake(), func() { rr.OnResponseArrived(p) })
		}})
	server := containersim.New(eng, containersim.Config{Name: "server", Veth: vethS,
		OnPacket: func(c *containersim.Container, p *packet.Packet) {
			eng.Schedule(serverWake(), func() { rr.OnRequestArrived(p) })
		}})

	// The switching fabric between the two veth host ends: the client's
	// veth is port 1, the server's port 3. Container outbound queues feed
	// it through a softirq of their own.
	feed := func(toServer, toClient func(*packet.Packet)) {
		cpu := eng.NewCPU("veth-softirq")
		kit.SoftirqRx(eng, cpu, vethC.FromPeer, 1,
			func(_ *sim.CPU, p *packet.Packet) { toServer(p) })
		kit.SoftirqRx(eng, cpu, vethS.FromPeer, 3,
			func(_ *sim.CPU, p *packet.Packet) { toClient(p) })
	}
	switch mode {
	case PCPKernel:
		// veth -> kernel OVS -> veth: one softirq hop each way.
		cpu := eng.NewCPU("ksoftirqd")
		nl := kit.OpenKernel("netlink",
			dpif.Config{Eng: eng, Pipeline: kit.LoopbackPipeline(kit.Hop{1, 3}, kit.Hop{3, 2})},
			dpif.TxPort{PortID: 3, PortName: "veth-server", Deliver: func(p *packet.Packet) { vethS.ToPeer.Push(p) }},
			dpif.TxPort{PortID: 2, PortName: "veth-client", Deliver: func(p *packet.Packet) { vethC.ToPeer.Push(p) }})
		toServer := func(p *packet.Packet) { eng.Schedule(0, func() { nl.Process(cpu, p) }) }
		feed(toServer, toServer)
	case PCPAFXDPRedir:
		// In-kernel XDP redirect between the veths: path C's program runs
		// once per hop on the sending veth's host end, no userspace.
		cpu := eng.NewCPU("veth-softirq")
		kit.RedirectRx(eng, cpu, vethC.FromPeer, rrServerMAC, 3, func(p *packet.Packet) { vethS.ToPeer.Push(p) })
		kit.RedirectRx(eng, cpu, vethS.FromPeer, rrClientMAC, 1, func(p *packet.Packet) { vethC.ToPeer.Push(p) })
	case PCPDPDK:
		// DPDK reaches containers via AF_PACKET: user/kernel crossings
		// with heavy queueing jitter on both directions, plus the PMD
		// batching gap (Section 5.3's explanation for 81/136/241 us).
		pmdCPU := eng.NewCPU("pmd")
		rnd := eng.Rand().Fork()
		crossing := func() sim.Time {
			// AF_PACKET injection: a fixed user/kernel crossing plus a
			// heavy-tailed queueing component (the source of Figure
			// 11's 241us P99).
			base := costmodel.DPDKContainerCrossing
			return base*17/20 + sim.Time(rnd.LogNormal(0, 1.35)*float64(base)/5)
		}
		hop := func(deliver func(*packet.Packet)) func(*packet.Packet) {
			return func(p *packet.Packet) {
				eng.Schedule(crossing(), func() {
					pmdCPU.Consume(sim.User, costmodel.DPDKRxDescriptor+costmodel.ParseFlowKey+
						costmodel.EMCHit+costmodel.ExecActionOutput)
					eng.Schedule(crossing(), func() { deliver(p) })
				})
			}
		}
		feed(hop(func(p *packet.Packet) { vethS.ToPeer.Push(p) }),
			hop(func(p *packet.Packet) { vethC.ToPeer.Push(p) }))
	}

	rr = trafficgen.NewRR(trafficgen.RRConfig{
		Eng: eng, Transactions: transactions,
		SrcMAC: rrClientMAC, DstMAC: rrServerMAC,
		SrcIP: hdr.MakeIP4(10, 0, 0, 1), DstIP: hdr.MakeIP4(10, 0, 0, 2),
		SrcPort: 40000, DstPort: 12865,
		SendRequest:  func(p *packet.Packet) { client.Transmit(p) },
		SendResponse: func(p *packet.Packet) { server.Transmit(p) },
		OnDone:       eng.Stop,
	})
	bed.rr = rr
	return bed
}

func runFig11(p Profile) *Report {
	r := &Report{ID: "fig11", Title: "TCP_RR latency, container to container (us)"}
	cases := []struct {
		mode          PCPMode
		p50, p90, p99 float64
	}{
		{PCPKernel, 15, 16, 20},
		{PCPAFXDPRedir, 15, 16, 20},
		{PCPDPDK, 81, 136, 241},
	}
	for _, c := range cases {
		bed := newContainerRRBed(c.mode, p.RRCount, 13)
		bed.rr.Start()
		bed.eng.Run()
		s := bed.rr.Latencies.Summarize()
		name := c.mode.String()
		r.Add(name+" P50", s.P50/1e3, c.p50, "us")
		r.Add(name+" P90", s.P90/1e3, c.p90, "us")
		r.Add(name+" P99", s.P99/1e3, c.p99, "us")
		r.Add(name+" kTPS", bed.rr.TransactionsPerSec()/1e3, 1e3/c.p50, "k/s")
	}
	r.AddNote("shape: kernel ~ afxdp (both in-kernel paths); DPDK 5-12x slower with a heavy tail")
	return r
}
