// Package core implements the paper's primary contribution: the OVS
// userspace datapath with AF_XDP packet I/O (Section 3), together with the
// alternative port transports the evaluation compares it against (DPDK,
// tap, vhostuser, veth) and the PMD threads that drive them.
//
// The datapath mirrors dpif-netdev: per-PMD exact-match cache, megaflow
// classifier, inline upcalls to the ofproto pipeline, and action execution
// including conntrack recirculation and tunnel push/pop. Every optimization
// from Table 2 is a switchable option so the experiments can walk the
// ladder.
package core

import (
	"fmt"

	"ovsxdp/internal/afxdp"
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/faultinject"
	"ovsxdp/internal/kernelsim"
	"ovsxdp/internal/nicsim"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/vdev"
	"ovsxdp/internal/xdp"
)

// Port is one datapath port. Implementations charge their I/O costs to the
// polling CPU; the receive side is pull-based (PMD polling), with Arm
// supporting the interrupt-driven mode of Figure 8(a).
type Port interface {
	ID() uint32
	Name() string
	// NumRxQueues returns the number of pollable receive queues.
	NumRxQueues() int
	// NumTxQueues returns the number of transmit queues. When the
	// datapath runs more PMD threads than a port has txqs, threads share
	// queues under XPS and each send pays a lock cost; <= 0 means the
	// port imposes no txq limit (function-delivery ports) and is never
	// contended.
	NumTxQueues() int
	// Rx fetches up to max packets from queue q, charging receive costs
	// to cpu.
	Rx(cpu *sim.CPU, q, max int) []*packet.Packet
	// Tx queues one packet for transmission on tx queue txq (PMD threads
	// each use their own tx queue, as OVS does), charging per-packet
	// costs to cpu. Transmission may be deferred until Flush.
	Tx(cpu *sim.CPU, txq int, p *packet.Packet)
	// Flush completes any batched transmission on txq (e.g. the AF_XDP
	// sendto kick), charging to cpu.
	Flush(cpu *sim.CPU, txq int)
	// Arm requests a wakeup callback when queue q has packets, for
	// interrupt-mode operation.
	Arm(q int, fn func())
}

// --- AF_XDP port ----------------------------------------------------------------

// AFXDPPortConfig parameterizes NewAFXDPPort.
type AFXDPPortConfig struct {
	ID  uint32
	NIC *nicsim.NIC
	Eng *sim.Engine
	// LockMode selects the umempool strategy (O2/O3).
	LockMode afxdp.LockMode
	// ZeroCopy selects zero-copy AF_XDP (XDP_DRV + XDP_ZEROCOPY): the
	// driver DMAs straight into umem, eliminating the kernel-side copy.
	// Only some NIC drivers support it; the copy-mode fallback "works
	// universally at the cost of an extra packet copy" (Section 3.5
	// limitations).
	ZeroCopy bool
}

// AFXDPPort is the paper's port type: the NIC runs an XDP program that
// redirects into per-queue XSK sockets; the PMD thread polls the XSK rx
// rings in userspace. Kernel-side work (driver, XDP program, tx drain)
// happens on per-queue softirq CPUs, concurrently with the PMD — exactly
// the split Table 4 shows for AF_XDP.
type AFXDPPort struct {
	id       uint32
	nic      *nicsim.NIC
	eng      *sim.Engine
	umem     *afxdp.Umem
	pool     *afxdp.Pool
	xsks     []*afxdp.XSK
	zeroCopy bool

	softirq []*sim.CPU
	actors  []*kernelsim.NAPIActor

	// pendingKick[q] is set while socket q holds tx descriptors no sendto
	// has announced; armFns[q] is the interrupt-mode wakeup armed on it.
	pendingKick []bool
	armFns      []func()

	// Per-port scratch buffers, reused across Rx calls (single-threaded
	// simulation; PMDs run one event at a time).
	scratchDescs []afxdp.Desc
	scratchAddrs []uint64
	// scratchOut is the packet slice Rx returns; the PMD consumes it
	// within the same event, so one buffer per port suffices.
	scratchOut []*packet.Packet
	// rxPool recycles receive-side packets (released by Tx once the frame
	// is copied into umem, or on any drop); txPool does the same for
	// kernel tx-drain frames headed to the NIC.
	rxPool *packet.Pool
	txPool *packet.Pool
	// drainFns are the pre-bound per-queue tx-drain thunks Flush
	// schedules, so a flush does not allocate a closure; drainEmit is the
	// bound frame-emit callback KernelDrainTx invokes.
	drainFns  []func()
	drainEmit func(frame []byte)

	// TxDrops counts packets lost to an empty umem, a full ring or oversize.
	TxDrops uint64
	// TxStallRetries counts kernel tx drains rescheduled with backoff
	// because an injected XSK ring stall was active.
	TxStallRetries uint64
}

// NewAFXDPPort builds the port and starts its softirq driver actors. The
// supplied XDP program (typically xdp.NewPassToXsk) must already be
// attached to the NIC's hook with an xskmap whose slot q routes to socket
// id q; this constructor wires socket ids to queues 1:1.
func NewAFXDPPort(cfg AFXDPPortConfig) *AFXDPPort {
	nq := cfg.NIC.NumQueues()
	umem := afxdp.NewUmem(afxdp.DefaultChunks, afxdp.DefaultChunkSize)
	p := &AFXDPPort{
		id:          cfg.ID,
		nic:         cfg.NIC,
		eng:         cfg.Eng,
		umem:        umem,
		pool:        afxdp.NewPool(umem, cfg.LockMode),
		zeroCopy:    cfg.ZeroCopy,
		pendingKick: make([]bool, nq),
		armFns:      make([]func(), nq),
		rxPool:      packet.NewPool(rxPoolSize, umem.ChunkSize(), true),
		txPool:      packet.NewPool(txPoolSize, umem.ChunkSize(), true),
	}
	for q := 0; q < nq; q++ {
		qq := q
		p.drainFns = append(p.drainFns, func() { p.drainTx(qq, 0) })
	}
	p.drainEmit = func(frame []byte) {
		p.nic.Transmit(p.txPool.GetCopy(frame))
	}
	for q := 0; q < nq; q++ {
		xsk := afxdp.NewXSK(uint32(q), q, umem)
		xsk.RefillFill(p.pool, afxdp.DefaultRingSize/2)
		p.xsks = append(p.xsks, xsk)

		// Kernel-side work for queue q runs on its own softirq CPU.
		cpu := cfg.Eng.NewCPU(fmt.Sprintf("softirq-%s-q%d", cfg.NIC.Name, q))
		p.softirq = append(p.softirq, cpu)

		qIdx := q
		verdicts := &xdp.Verdicts{
			ToXsk: func(sock uint32, pkt *packet.Packet) { p.toXsk(qIdx, sock, pkt) },
			Tx:    cfg.NIC.Transmit,
		}
		actor := &kernelsim.NAPIActor{
			Eng: cfg.Eng, CPU: cpu,
			Src: cfg.NIC.Queue(q),
			Handler: func(cpu *sim.CPU, pkts []*packet.Packet) {
				// The driver pulls each frame through the XDP stage;
				// what the program does not redirect into a socket goes
				// to the host stack or back out the wire.
				for _, pkt := range pkts {
					p.nic.Hook.Receive(cpu, qIdx, pkt, p.nic.Ifindex, verdicts)
				}
			},
		}
		actor.Start()
		p.actors = append(p.actors, actor)
	}
	return p
}

// rxPoolSize / txPoolSize bound in-flight packets on each side of an
// AF_XDP port: rx is capped by ring depth and batch size, tx by the drain
// burst. Overflow falls back to heap allocation gracefully. Only the metadata
// is pre-allocated (O4): a packet's buffer, like a umem page, arrives on first
// use, so an idle port holds neither.
const (
	rxPoolSize = 1024
	txPoolSize = 2048
)

// toXsk is the kernel-side XSK delivery of a frame the XDP program on queue
// q redirected to socket sock: with zero-copy the driver DMA'd straight into
// umem and only the descriptor moves; copy mode pays a memcpy. Either way
// the frame then lives in umem (or was dropped by a full rx ring) and the
// wire-side packet is done.
func (p *AFXDPPort) toXsk(q int, sock uint32, pkt *packet.Packet) {
	if int(sock) < len(p.xsks) {
		s := p.xsks[sock]
		cost := sim.Time(8)
		if !p.zeroCopy {
			cost += costmodel.CopyCost(len(pkt.Data))
		}
		p.softirq[q].Consume(sim.Softirq, cost)
		if s.KernelDeliver(pkt.Data) {
			if fn := p.armFns[s.Queue]; fn != nil {
				p.armFns[s.Queue] = nil
				fn()
			}
		}
	}
	pkt.Release()
}

// ID implements Port.
func (p *AFXDPPort) ID() uint32 { return p.id }

// Name implements Port.
func (p *AFXDPPort) Name() string { return p.nic.Name }

// NumRxQueues implements Port.
func (p *AFXDPPort) NumRxQueues() int { return len(p.xsks) }

// NumTxQueues implements Port: one XSK tx ring per queue.
func (p *AFXDPPort) NumTxQueues() int { return len(p.xsks) }

// XSK exposes the socket for queue q (tests, xskmap setup).
func (p *AFXDPPort) XSK(q int) *afxdp.XSK { return p.xsks[q] }

// lockCost returns the umempool synchronization cost for one batch of n
// operations under the configured mode.
func (p *AFXDPPort) lockCost(n int) sim.Time {
	switch p.pool.Mode {
	case afxdp.LockMutex:
		return sim.Time(n) * costmodel.MutexLockPerPacket
	case afxdp.LockSpin:
		return sim.Time(n) * costmodel.SpinlockPerAcquire
	default:
		return costmodel.SpinlockPerAcquire
	}
}

// Rx implements Port: pop descriptors from the XSK rx ring, materialize
// packets, recycle the chunks, and refill the fill ring.
func (p *AFXDPPort) Rx(cpu *sim.CPU, q, max int) []*packet.Packet {
	xsk := p.xsks[q]
	if cap(p.scratchDescs) < max {
		p.scratchDescs = make([]afxdp.Desc, max)
		p.scratchAddrs = make([]uint64, 0, max)
	}
	descs := p.scratchDescs[:max]
	n := xsk.UserReceive(descs, max)
	if n == 0 {
		return nil
	}
	out := p.scratchOut[:0]
	addrs := p.scratchAddrs[:0]
	for _, d := range descs[:n] {
		buf := xsk.Umem.Buffer(d.Addr, int(d.Len))
		pkt := p.rxPool.GetCopy(buf)
		pkt.InPort = p.id
		// AF_XDP cannot see the NIC's descriptor metadata: neither the
		// validated-checksum flag nor the RSS hash survive the XDP
		// path (Section 5.5), so the hash is recomputed in software
		// and checksum state starts unverified.
		pkt.Offloads = 0
		pkt.HasRSSHash = false
		cpu.Consume(sim.User, costmodel.RxHashSoftware)
		out = append(out, pkt)
		addrs = append(addrs, d.Addr)
		cpu.Consume(sim.User, costmodel.AFXDPRxDescriptor)
	}
	// Copy-mode recycling: chunks return to the pool, then the fill ring
	// is topped up for the next arrivals. Release and refill share one
	// critical section, so the lock cost is paid once per operation (or
	// once per batch in the batched mode).
	p.pool.ReleaseBatch(addrs)
	xsk.RefillFill(p.pool, n)
	cpu.Consume(sim.User, sim.Time(n)*costmodel.AFXDPFillRefill+
		p.lockCost(n)+sim.Time(n)*costmodel.UmempoolOpBatched)
	p.scratchOut = out
	return out
}

// Tx implements Port: allocate a chunk, copy the frame in (one longer than a
// chunk is dropped, not truncated), queue the descriptor on the PMD's own tx
// queue's socket. The sendto kick and the kernel-side drain happen in Flush.
func (p *AFXDPPort) Tx(cpu *sim.CPU, txq int, pkt *packet.Packet) {
	if len(pkt.Data) > p.umem.ChunkSize() {
		p.TxDrops++
		pkt.Release()
		return
	}
	addr, ok := p.pool.Alloc()
	if p.pool.Mode == afxdp.LockSpinBatched {
		// Batched locking amortizes the tx-side pool lock across the
		// flush batch; only bookkeeping remains per packet.
		cpu.Consume(sim.User, costmodel.UmempoolOpBatched)
	} else {
		// Transmit allocations hit a small per-thread cache; the pool
		// lock is taken roughly every fourth packet.
		cpu.Consume(sim.User, p.lockCost(1)/4)
	}
	if !ok {
		p.TxDrops++
		pkt.Release()
		return
	}
	n := len(pkt.Data)
	copy(p.umem.Buffer(addr, n), pkt.Data)
	// The frame now lives in a umem chunk; the packet object is done.
	pkt.Release()
	q := txq % len(p.xsks)
	cpu.Consume(sim.User, costmodel.AFXDPTxDescriptor)
	if !p.xsks[q].UserTransmit(afxdp.Desc{Addr: addr, Len: uint32(n)}) {
		p.pool.Release(addr)
		p.TxDrops++
		return
	}
	p.pendingKick[q] = true
}

// Flush implements Port: issue the sendto kick and schedule the kernel tx
// drain on the queue's softirq CPU; completed buffers are reclaimed.
func (p *AFXDPPort) Flush(cpu *sim.CPU, txq int) {
	q := txq % len(p.xsks)
	if !p.pendingKick[q] {
		return
	}
	p.pendingKick[q] = false
	xsk := p.xsks[q]
	if xsk.Kick() {
		cpu.Consume(sim.System, costmodel.AFXDPTxKickSyscall)
	}
	p.eng.Schedule(0, p.drainFns[q])
}

// maxTxStallRetries bounds the backoff retries of one stalled tx drain; at
// the default base the last retry lands ~80ms out, far beyond any injected
// stall window.
const maxTxStallRetries = 12

// drainTx runs the kernel-side tx drain for queue q. An injected XSK ring
// stall (transient fault) does not lose the drain: it is rescheduled with
// exponential backoff until the stall clears or the retry budget runs out.
func (p *AFXDPPort) drainTx(q, attempt int) {
	xsk := p.xsks[q]
	if xsk.Stalled() {
		if attempt >= maxTxStallRetries {
			return
		}
		p.TxStallRetries++
		delay := faultinject.Backoff(p.eng.Rand(), 20*sim.Microsecond, attempt+1)
		p.eng.Schedule(delay, func() { p.drainTx(q, attempt+1) })
		return
	}
	scpu := p.softirq[q]
	n := xsk.KernelDrainTx(afxdp.DefaultRingSize, p.drainEmit)
	scpu.Consume(sim.Softirq, sim.Time(n)*costmodel.AFXDPTxKernelDrain)
	xsk.ReclaimCompletions(p.pool, n)
}

// Arm implements Port for interrupt-mode receive.
func (p *AFXDPPort) Arm(q int, fn func()) {
	if p.xsks[q].Rx.Len() > 0 {
		fn()
		return
	}
	p.armFns[q] = fn
}

// --- DPDK port -------------------------------------------------------------------

// DPDKPort is the Section 2.2.1 baseline: the PMD polls the NIC hardware
// queues directly from userspace; no kernel code runs at all (and the
// kernel loses sight of the device — see netlinksim.BindDPDK).
type DPDKPort struct {
	id  uint32
	nic *nicsim.NIC
}

// NewDPDKPort wraps a NIC whose kernel driver has been unbound.
func NewDPDKPort(id uint32, nic *nicsim.NIC) *DPDKPort {
	return &DPDKPort{id: id, nic: nic}
}

// ID implements Port.
func (p *DPDKPort) ID() uint32 { return p.id }

// Name implements Port.
func (p *DPDKPort) Name() string { return p.nic.Name }

// NumRxQueues implements Port.
func (p *DPDKPort) NumRxQueues() int { return p.nic.NumQueues() }

// NumTxQueues implements Port: hardware tx rings match the rx side.
func (p *DPDKPort) NumTxQueues() int { return p.nic.NumQueues() }

// Rx implements Port.
func (p *DPDKPort) Rx(cpu *sim.CPU, q, max int) []*packet.Packet {
	pkts := p.nic.Queue(q).Pop(max)
	for _, pkt := range pkts {
		pkt.InPort = p.id
		// The DPDK PMD reads checksum validation and the RSS hash
		// straight from the descriptor.
		pkt.Offloads |= packet.CsumVerified
		cpu.Consume(sim.User, costmodel.DPDKRxDescriptor+costmodel.DPDKMbufAlloc)
	}
	return pkts
}

// Tx implements Port.
func (p *DPDKPort) Tx(cpu *sim.CPU, _ int, pkt *packet.Packet) {
	cpu.Consume(sim.User, costmodel.DPDKTxDescriptor)
	p.nic.Transmit(pkt)
}

// Flush implements Port: DPDK tx bursts complete synchronously.
func (p *DPDKPort) Flush(*sim.CPU, int) {}

// Arm implements Port: DPDK is poll-only; the wakeup fires immediately if
// work exists (interrupt mode is unsupported, as in practice).
func (p *DPDKPort) Arm(q int, fn func()) {
	p.nic.Queue(q).SetWakeup(fn)
	p.nic.Queue(q).ArmWakeup()
}

// --- link port (tap, vhostuser, veth, AF_PACKET) ------------------------------------

// linkCosts is one row of linkKinds: what a LinkPort pays, and where, to move
// a packet across its link. The paper compares tap, vhostuser and veth by
// where the crossing is paid (Section 3.3-3.4, Figure 5), so a kind is
// numbers, not code.
type linkCosts struct {
	// cat is the category the polling CPU's per-packet work lands in:
	// System where every crossing is a system call, User where it is a
	// shared-memory ring operation.
	cat sim.Category
	// rxBatch is paid once per non-empty receive batch.
	rxBatch sim.Time
	// rxPkt and txPkt are the fixed per-packet costs; copies adds
	// CopyCost(len) to each.
	rxPkt, txPkt sim.Time
	copies       bool
	// trustCsum marks received checksums verified (unless partial): the
	// peer is a local guest or the local kernel, there is no wire.
	trustCsum bool
	// flush is the System-time kick that completes a transmit batch.
	flush sim.Time
	// caps are the transmit offloads the peer negotiates.
	caps Caps
}

var linkKinds = map[string]linkCosts{
	// Section 3.3 path A: "we measured the cost of this system call as
	// 2 us on average" — a read() per batch, and with OVS's batching
	// TapPerPacketAmortized of sendto() per packet.
	"tap": {cat: sim.System, rxBatch: costmodel.SyscallBase, txPkt: costmodel.TapPerPacketAmortized,
		copies: true, trustCsum: true, caps: allOffloads},
	// Section 3.3 path B: the VM's virtio rings in shared memory, no kernel
	// crossing and no QEMU relay; virtio negotiates the offloads.
	"vhostuser": {cat: sim.User, rxPkt: costmodel.VhostRingOp, txPkt: costmodel.VhostRingOp,
		copies: true, trustCsum: true, caps: allOffloads},
	// Figure 5 path A for containers: an AF_XDP socket in generic mode on
	// the host end of a veth. Like every AF_XDP port it reaches no offload
	// engine (Section 3.2 O5); the port's softirq CPU pays the skb copies.
	"veth": {cat: sim.User, rxPkt: costmodel.AFXDPRxDescriptor, txPkt: costmodel.AFXDPTxDescriptor,
		flush: costmodel.AFXDPTxKickSyscall},
	// DPDK reaching a container by AF_PACKET injection: a user/kernel
	// crossing plus a copy each way (Section 5.3's explanation of DPDK's
	// container latency). Under load the AF_PACKET ring amortizes the
	// crossing across a batch of 16.
	"afpacket": {cat: sim.System, rxPkt: costmodel.DPDKContainerCrossing / 16, txPkt: costmodel.DPDKContainerCrossing / 16,
		copies: true, caps: allOffloads},
}

// LinkPort is a vdev.Link as a datapath port: it receives what the peer
// sent, transmits toward the peer, and charges the polling CPU its kind's
// linkCosts.
type LinkPort struct {
	id   uint32
	link *vdev.Link
	linkCosts
	// softirq, when set, is the kernel CPU a transmit crosses on before
	// the peer sees it.
	softirq *sim.CPU
}

// NewLinkPort makes link port id of kind "tap", "vhostuser", "veth" or
// "afpacket"; any other kind is a programming error. A veth's generic-mode
// XSK ("a fallback mode that works universally at the cost of an extra
// packet copy") does its transmit-side skb work on softirq, which the caller
// supplies because which veths share a softirq CPU is model; the other kinds
// pass nil and deliver at once.
func NewLinkPort(id uint32, kind string, link *vdev.Link, softirq *sim.CPU) *LinkPort {
	costs, ok := linkKinds[kind]
	if !ok {
		panic("core: unknown link kind " + kind)
	}
	return &LinkPort{id: id, link: link, linkCosts: costs, softirq: softirq}
}

// ID implements Port.
func (p *LinkPort) ID() uint32 { return p.id }

// Name implements Port.
func (p *LinkPort) Name() string { return p.link.Name }

// NumRxQueues implements Port.
func (p *LinkPort) NumRxQueues() int { return 1 }

// NumTxQueues implements Port: a link is one ring pair.
func (p *LinkPort) NumTxQueues() int { return 1 }

// perPacket is a fixed cost plus, on a copying kind, the copy of pkt.
func (p *LinkPort) perPacket(fixed sim.Time, pkt *packet.Packet) sim.Time {
	if p.copies {
		fixed += costmodel.CopyCost(len(pkt.Data))
	}
	return fixed
}

// Rx implements Port: dequeue what the peer sent.
func (p *LinkPort) Rx(cpu *sim.CPU, _, max int) []*packet.Packet {
	pkts := p.link.FromPeer.Pop(max)
	if len(pkts) > 0 && p.rxBatch > 0 {
		cpu.Consume(p.cat, p.rxBatch)
	}
	for _, pkt := range pkts {
		pkt.InPort = p.id
		if p.trustCsum && pkt.Offloads&packet.CsumPartial == 0 {
			pkt.Offloads |= packet.CsumVerified
		}
		cpu.Consume(p.cat, p.perPacket(p.rxPkt, pkt))
	}
	return pkts
}

// Tx implements Port: enqueue toward the peer. Behind a softirq CPU the
// packet first pays skb allocation, linearization and cold copies on both
// crossings there, and that CPU gates delivery — the reason Figure 8(c)'s
// AF_XDP-veth bars top out around 8 Gbps even with TSO.
func (p *LinkPort) Tx(cpu *sim.CPU, _ int, pkt *packet.Packet) {
	cpu.Consume(p.cat, p.perPacket(p.txPkt, pkt))
	if p.softirq == nil {
		p.link.ToPeer.Push(pkt)
		return
	}
	cost := costmodel.SkbAlloc + 4*costmodel.CopyCostCold(len(pkt.Data)) + costmodel.VethCrossing
	p.softirq.Exec(sim.Softirq, cost, func() { p.link.ToPeer.Push(pkt) })
}

// Flush implements Port.
func (p *LinkPort) Flush(cpu *sim.CPU, _ int) {
	if p.flush > 0 {
		cpu.Consume(sim.System, p.flush)
	}
}

// Arm implements Port.
func (p *LinkPort) Arm(_ int, fn func()) {
	p.link.FromPeer.SetWakeup(fn)
	p.link.FromPeer.ArmWakeup()
}
