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
	// rxPool recycles receive-side packet metadata+buffers (released by
	// Tx once the frame is copied into umem, or on any drop); txPool does
	// the same for kernel tx-drain frames headed to the NIC.
	rxPool *packet.Pool
	txPool *packet.Pool
	// drainFns are the pre-bound per-queue tx-drain thunks Flush
	// schedules, so a flush does not allocate a closure; drainEmit is the
	// bound frame-emit callback KernelDrainTx invokes.
	drainFns  []func()
	drainEmit func(frame []byte)

	// TxDrops counts packets lost to a full tx ring.
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
		verdicts := &nicsim.DriverVerdicts{
			ToXsk: func(sock uint32, pkt *packet.Packet) { p.toXsk(qIdx, sock, pkt) },
		}
		actor := &kernelsim.NAPIActor{
			Eng: cfg.Eng, CPU: cpu,
			Src: kernelsim.NICQueueSource{Q: cfg.NIC.Queue(q)},
			Handler: func(cpu *sim.CPU, pkts []*packet.Packet) {
				// The driver pulls each frame through the XDP stage;
				// what the program does not redirect into a socket goes
				// to the host stack or back out the wire.
				for _, pkt := range pkts {
					p.nic.DriverReceive(cpu, qIdx, pkt, verdicts)
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
// burst. Overflow falls back to heap allocation gracefully.
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

// Tx implements Port: allocate a chunk, copy the frame in, queue the
// descriptor on the PMD's own tx queue's socket. The sendto kick and the
// kernel-side drain happen in Flush.
func (p *AFXDPPort) Tx(cpu *sim.CPU, txq int, pkt *packet.Packet) {
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
	if n > p.umem.ChunkSize() {
		n = p.umem.ChunkSize()
	}
	copy(p.umem.Buffer(addr, n), pkt.Data[:n])
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
	p.nic.Queue(q).SetInterrupt(fn)
	p.nic.Queue(q).ArmInterrupt()
}

// --- vhostuser port ---------------------------------------------------------------

// VhostPort is the Section 3.3 path B device: OVS accesses the VM's virtio
// rings directly through shared memory, with no kernel crossing and no
// QEMU relay.
type VhostPort struct {
	id  uint32
	dev *vdev.VhostUser
}

// NewVhostPort wraps a vhostuser device.
func NewVhostPort(id uint32, dev *vdev.VhostUser) *VhostPort {
	return &VhostPort{id: id, dev: dev}
}

// ID implements Port.
func (p *VhostPort) ID() uint32 { return p.id }

// Name implements Port.
func (p *VhostPort) Name() string { return p.dev.Name }

// NumRxQueues implements Port.
func (p *VhostPort) NumRxQueues() int { return 1 }

// NumTxQueues implements Port: a single virtio ring pair.
func (p *VhostPort) NumTxQueues() int { return 1 }

// Rx implements Port: dequeue from the guest's tx ring, paying the ring op
// and the copy out of guest memory.
func (p *VhostPort) Rx(cpu *sim.CPU, _, max int) []*packet.Packet {
	pkts := p.dev.FromGuest.Pop(max)
	for _, pkt := range pkts {
		pkt.InPort = p.id
		// Local guest traffic is trusted: virtio marks checksums as
		// already validated (or partial for offload negotiation).
		if pkt.Offloads&packet.CsumPartial == 0 {
			pkt.Offloads |= packet.CsumVerified
		}
		cpu.Consume(sim.User, costmodel.VhostRingOp+costmodel.CopyCost(len(pkt.Data)))
	}
	return pkts
}

// Tx implements Port: enqueue onto the guest's rx ring.
func (p *VhostPort) Tx(cpu *sim.CPU, _ int, pkt *packet.Packet) {
	cpu.Consume(sim.User, costmodel.VhostRingOp+costmodel.CopyCost(len(pkt.Data)))
	p.dev.ToGuest.Push(pkt)
}

// Flush implements Port.
func (p *VhostPort) Flush(*sim.CPU, int) {}

// Arm implements Port.
func (p *VhostPort) Arm(_ int, fn func()) {
	p.dev.FromGuest.SetWakeup(fn)
	p.dev.FromGuest.ArmWakeup()
}

// --- tap port ---------------------------------------------------------------------

// TapPort is the Section 3.3 path A device: every packet OVS sends to the
// VM/kernel costs a system call ("we measured the cost of this system call
// as 2 µs on average"; with OVS's batching the amortized per-packet
// penalty is TapPerPacketAmortized).
type TapPort struct {
	id  uint32
	dev *vdev.Tap
}

// NewTapPort wraps a tap device.
func NewTapPort(id uint32, dev *vdev.Tap) *TapPort {
	return &TapPort{id: id, dev: dev}
}

// ID implements Port.
func (p *TapPort) ID() uint32 { return p.id }

// Name implements Port.
func (p *TapPort) Name() string { return p.dev.Name }

// NumRxQueues implements Port.
func (p *TapPort) NumRxQueues() int { return 1 }

// NumTxQueues implements Port: a single-queue tap.
func (p *TapPort) NumTxQueues() int { return 1 }

// Rx implements Port: read() from the tap, a syscall per batch plus copies.
func (p *TapPort) Rx(cpu *sim.CPU, _, max int) []*packet.Packet {
	pkts := p.dev.FromKernel.Pop(max)
	if len(pkts) == 0 {
		return nil
	}
	cpu.Consume(sim.System, costmodel.SyscallBase)
	for _, pkt := range pkts {
		pkt.InPort = p.id
		if pkt.Offloads&packet.CsumPartial == 0 {
			pkt.Offloads |= packet.CsumVerified
		}
		cpu.Consume(sim.System, costmodel.CopyCost(len(pkt.Data)))
	}
	return pkts
}

// Tx implements Port.
func (p *TapPort) Tx(cpu *sim.CPU, _ int, pkt *packet.Packet) {
	cpu.Consume(sim.System, costmodel.TapPerPacketAmortized+costmodel.CopyCost(len(pkt.Data)))
	p.dev.ToKernel.Push(pkt)
}

// Flush implements Port.
func (p *TapPort) Flush(*sim.CPU, int) {}

// Arm implements Port.
func (p *TapPort) Arm(_ int, fn func()) {
	p.dev.FromKernel.SetWakeup(fn)
	p.dev.FromKernel.ArmWakeup()
}

// --- veth port (AF_XDP generic mode on a veth) --------------------------------------

// VethPort carries container traffic through OVS userspace (Figure 5 path
// A): an AF_XDP socket in generic mode on the host end of a veth pair.
// Generic mode means an extra skb copy on both directions, the reason the
// Figure 8(c) veth bars trail the in-kernel numbers.
type VethPort struct {
	id      uint32
	pair    *vdev.VethPair
	softirq *sim.CPU
	eng     *sim.Engine
}

// NewVethPort wraps the host end of a veth pair; softirq is the kernel CPU
// charged for the generic-XDP copies.
func NewVethPort(id uint32, eng *sim.Engine, pair *vdev.VethPair, softirq *sim.CPU) *VethPort {
	return &VethPort{id: id, pair: pair, softirq: softirq, eng: eng}
}

// ID implements Port.
func (p *VethPort) ID() uint32 { return p.id }

// Name implements Port.
func (p *VethPort) Name() string { return p.pair.Name }

// NumRxQueues implements Port.
func (p *VethPort) NumRxQueues() int { return 1 }

// NumTxQueues implements Port: one generic-mode XSK tx ring.
func (p *VethPort) NumTxQueues() int { return 1 }

// Rx implements Port.
func (p *VethPort) Rx(cpu *sim.CPU, _, max int) []*packet.Packet {
	pkts := p.pair.BtoA.Pop(max)
	for _, pkt := range pkts {
		pkt.InPort = p.id
		cpu.Consume(sim.User, costmodel.AFXDPRxDescriptor)
	}
	return pkts
}

// Tx implements Port.
// Tx implements Port. Generic-mode XSK pays skb allocation, linearization,
// and cold copies on both the receive and transmit crossings ("a fallback
// mode that works universally at the cost of an extra packet copy"); all of
// that serializes on the veth's softirq CPU, which gates delivery — the
// reason Figure 8(c)'s AF_XDP-veth bars top out around 8 Gbps even with
// TSO.
func (p *VethPort) Tx(cpu *sim.CPU, _ int, pkt *packet.Packet) {
	cpu.Consume(sim.User, costmodel.AFXDPTxDescriptor)
	cost := costmodel.SkbAlloc + 4*costmodel.CopyCostCold(len(pkt.Data)) + costmodel.VethCrossing
	pair := p.pair
	p.softirq.Exec(sim.Softirq, cost, func() { pair.SendA(pkt) })
}

// Flush implements Port.
func (p *VethPort) Flush(cpu *sim.CPU, _ int) {
	cpu.Consume(sim.System, costmodel.AFXDPTxKickSyscall)
}

// Arm implements Port.
func (p *VethPort) Arm(_ int, fn func()) {
	p.pair.BtoA.SetWakeup(fn)
	p.pair.BtoA.ArmWakeup()
}
