// Package costmodel holds the calibrated virtual-time costs that the
// simulated datapaths charge for each operation.
//
// Every constant is expressed in virtual nanoseconds (sim.Time) and is
// derived from anchor numbers the paper itself reports:
//
//   - Table 2's optimization ladder fixes the per-packet cost of the
//     fully-optimized AF_XDP path (7.1 Mpps -> 141 ns/pkt) and the deltas
//     attributable to each optimization O1..O5.
//   - Section 3.3 fixes the tap-device system call at 2 us and the observed
//     amortized per-packet penalty (7.1 Mpps -> 1.3 Mpps => ~630 ns/pkt).
//   - Table 4 fixes the CPU-category split per datapath at 1,000 flows.
//   - Table 5 fixes the per-instruction and per-map-op costs of XDP
//     programs (14 / 8.1 / 7.1 / 4.7 Mpps for tasks A-D).
//   - Figures 10 and 11 fix the latency bases and jitter magnitudes.
//
// The derivations appear as comments next to each constant. Absolute values
// are not the reproduction target (our substrate is a simulator, not the
// authors' Xeon testbed); the orderings and ratios between configurations
// are.
package costmodel

import "ovsxdp/internal/sim"

// ---------------------------------------------------------------------------
// Userspace datapath per-packet costs (Table 2 ladder).
//
// Fully optimized (O1+O2+O3+O4+O5) the paper measures 7.1 Mpps for 64-byte
// single-flow forwarding between a physical NIC and OVS userspace, i.e.
// ~141 ns/packet. We decompose that budget into the components below; the
// Table 2 experiment then *removes* optimizations one at a time, which adds
// back the corresponding costs.
// ---------------------------------------------------------------------------
const (
	// AFXDPRxDescriptor covers popping one descriptor from the XSK rx
	// ring, translating its umem address, and attaching the buffer to a
	// dp_packet.
	AFXDPRxDescriptor sim.Time = 20

	// AFXDPFillRefill is the amortized per-packet cost of pushing fresh
	// buffers onto the fill ring (done once per batch).
	AFXDPFillRefill sim.Time = 6

	// AFXDPTxDescriptor covers reserving and filling one descriptor on
	// the XSK tx ring, including the umem copy-mode address handling.
	AFXDPTxDescriptor sim.Time = 20

	// AFXDPTxKickSyscall is the sendto() wakeup that tells the kernel to
	// drain the tx ring. It is issued once per transmitted batch, so its
	// per-packet share is this divided by the batch size.
	AFXDPTxKickSyscall sim.Time = 430

	// AFXDPTxKernelDrain is the kernel-side (softirq) work to actually
	// transmit one descriptor from the XSK tx ring out the NIC. It runs
	// on the softirq CPU, concurrently with the PMD thread, so it only
	// bounds throughput if the softirq side becomes the bottleneck.
	AFXDPTxKernelDrain sim.Time = 46

	// ParseFlowKey is the flow-key extraction (miniflow_extract analog):
	// walking Ethernet/IP/L4 headers of a packet already in cache.
	ParseFlowKey sim.Time = 22

	// EMCHit is an exact-match-cache hit: one hash and one key compare.
	EMCHit sim.Time = 12

	// EMCMissProbe is the wasted EMC probe that precedes a megaflow
	// lookup when the EMC misses.
	EMCMissProbe sim.Time = 10

	// SMCHit is a signature-match-cache hit: one 4-way bucket probe (a
	// single cache line of 16-bit signatures), the indirection-table load,
	// and the mandatory verification of the candidate megaflow against the
	// packet's key (mask application + key compare — the same work as one
	// dpcls subtable probe minus its hash). That puts it between an EMC
	// hit and a single-subtable dpcls lookup, matching the SMC commit
	// message's "slightly slower than EMC, much faster than the megaflow
	// cache at high flow counts".
	SMCHit sim.Time = 25

	// SMCMissProbe is the wasted SMC bucket probe preceding a dpcls
	// lookup when the SMC misses: one cache line, no verification.
	SMCMissProbe sim.Time = 8

	// SMCInsert is writing one (signature, index) pair after a dpcls or
	// upcall resolution, including the occasional indirection-table
	// registration, amortized. Paid only when the SMC is enabled, which is
	// why smc-enable=false (the OVS default) costs nothing.
	SMCInsert sim.Time = 8

	// DpclsLookupPerSubtable is the cost per tuple-space subtable probed
	// during a megaflow (dpcls) lookup: mask application, hash, compare.
	DpclsLookupPerSubtable sim.Time = 29

	// ExecActionOutput covers executing a trivial action list that
	// forwards to one port.
	ExecActionOutput sim.Time = 22

	// ExecActionSimple is one lightweight header-rewrite action (VLAN
	// push/pop, MAC rewrite, TTL decrement).
	ExecActionSimple sim.Time = 6

	// PollIdleIteration is one empty busy-poll loop iteration of a PMD
	// thread across its receive queues.
	PollIdleIteration sim.Time = 600

	// PacketMetadataInit is the per-packet dp_packet metadata
	// initialization when metadata is *pre-allocated* (optimization O4).
	PacketMetadataInit sim.Time = 4

	// PacketMetadataMmap is the additional amortized per-packet cost of
	// allocating dp_packet metadata with mmap when O4 is disabled
	// (Table 2: 6.3 -> 6.6 Mpps => ~7 ns/pkt).
	PacketMetadataMmap sim.Time = 7

	// ChecksumPerByte is the software checksum cost per payload byte.
	// Table 2's O5 estimates checksum offload is worth 6.6 -> 7.1 Mpps
	// on 64-byte packets => ~10.7 ns/pkt => ~0.167 ns/byte.
	// We keep integer math by expressing it per 8 bytes.
	ChecksumPer8Bytes sim.Time = 1 // ~0.125 ns/byte, reviewed vs O5 delta

	// MutexLockPerPacket is the per-packet cost of guarding umempool
	// operations with a pthread mutex (possible context switch; the
	// paper saw ~5% CPU in pthread_mutex_lock). Table 2: disabling O2
	// costs 6.0 -> 4.8 Mpps => ~42 ns/pkt.
	MutexLockPerPacket sim.Time = 42

	// SpinlockPerAcquire is an uncontended spinlock acquire/release pair.
	// With per-packet locking (O3 disabled) this is paid per packet
	// (Table 2: 6.3 -> 6.0 Mpps => ~8 ns/pkt); with batched locking it
	// is paid once per batch.
	SpinlockPerAcquire sim.Time = 8

	// UmempoolOpBatched is the residual per-packet umempool bookkeeping
	// cost once locking is batched.
	UmempoolOpBatched sim.Time = 2

	// NonPMDPollGap models the datapath *without* dedicated PMD threads
	// (O1 disabled): the shared main thread interleaves packet polling
	// with OpenFlow/OVSDB work and sleeps in poll(), so each batch
	// additionally pays for a poll() system call, a wakeup, and a
	// scheduler delay. Table 2: 0.8 Mpps vs 4.8 Mpps with PMD
	// => ~1040 ns/pkt extra, i.e. ~33 us per 32-packet batch.
	NonPMDPollGap sim.Time = 33 * sim.Microsecond

	// InterruptModeWakeup is the per-interrupt cost (irq + NAPI schedule
	// + userspace wakeup) when AF_XDP is used in interrupt-driven mode
	// rather than busy polling (Figure 8a's "interrupt" bar).
	InterruptModeWakeup sim.Time = 5200

	// ColdFlowCacheMiss is the extra cost of touching per-flow state that
	// is not resident in the CPU data cache. It applies when the active
	// flow count is large (the 1,000-flow columns of Figure 9): each
	// packet's EMC/megaflow entry and conntrack entry are cold.
	ColdFlowCacheMiss sim.Time = 35
)

// ColdFlowThreshold is the EMC (or SMC) occupancy beyond which per-packet
// flow state no longer fits the CPU data cache and each hit pays
// ColdFlowCacheMiss.
const ColdFlowThreshold = 512

// ---------------------------------------------------------------------------
// DPDK datapath (Section 2.2.1 baseline).
//
// Table 4 shows DPDK P2P spends 1.0 hyperthread entirely in userspace.
// OVS-DPDK forwarding at 64B is reported around 11-12 Mpps per core in the
// figure 9(a) regime => ~86 ns/pkt. DPDK shares the ParseFlowKey/EMC/action
// costs with the AF_XDP path (it runs the same OVS userspace datapath); only
// packet I/O differs.
// ---------------------------------------------------------------------------
const (
	// DPDKRxDescriptor is the PMD rx burst per-packet cost (no kernel
	// involvement, direct DMA into hugepage mbufs).
	DPDKRxDescriptor sim.Time = 14

	// DPDKTxDescriptor is the PMD tx burst per-packet cost.
	DPDKTxDescriptor sim.Time = 14

	// DPDKMbufAlloc is the amortized mbuf allocate/free pair from the
	// per-core mempool cache.
	DPDKMbufAlloc sim.Time = 5
)

// ---------------------------------------------------------------------------
// Kernel datapath and network stack (Section 2 baseline).
// ---------------------------------------------------------------------------
const (
	// SkbAlloc is allocating and initializing a socket buffer.
	SkbAlloc sim.Time = 80

	// KernelOVSLookup is the in-kernel OVS flow table lookup (masked
	// hash table walk) for a warm flow.
	KernelOVSLookup sim.Time = 150

	// KernelOVSActions is executing a simple output action in-kernel.
	KernelOVSActions sim.Time = 75

	// KernelDriverRx is NAPI poll + DMA sync + descriptor handling per
	// packet in the NIC driver.
	KernelDriverRx sim.Time = 130

	// KernelDriverTx is queueing one packet to the NIC tx ring from
	// kernel context.
	KernelDriverTx sim.Time = 110

	// KernelStackRxPerPacket is IP + transport receive processing of one
	// packet through the host stack (excluding socket delivery).
	KernelStackRxPerPacket sim.Time = 260

	// KernelStackTxPerPacket is transport + IP transmit processing.
	KernelStackTxPerPacket sim.Time = 240

	// KernelPerByteCopy is the per-byte cost of copying packet payload
	// (user<->kernel copies, skb copies). ~16 bytes/ns memcpy plus
	// cache effects => 0.0625 ns/byte; expressed per 16 bytes.
	KernelPerByte16 sim.Time = 1

	// SyscallBase is the fixed cost of entering and leaving the kernel
	// (read/write/sendmsg on a hot path).
	SyscallBase sim.Time = 480

	// TapPerPacketAmortized is the effective additional per-packet cost
	// of the tap path in the userspace datapath after batching.
	TapPerPacketAmortized sim.Time = 630

	// VethCrossing is handing a packet across a veth pair between
	// namespaces (no data copy, reference move + netif_rx).
	VethCrossing sim.Time = 180

	// InterruptLatencyMean is the mean delay from NIC DMA completion to
	// the softirq handler running, in interrupt mode with typical
	// adaptive coalescing.
	InterruptLatencyMean sim.Time = 4 * sim.Microsecond

	// SMTContentionNum/Den express how per-packet kernel costs inflate
	// when many hyperthreads process packets concurrently (shared
	// physical cores, shared cache and memory bandwidth). Effective
	// cost = base * (1 + (n-1)/n * Num/Den). Calibrated so that at full
	// 12-thread fan-out per-packet cost inflates ~3.9x, which reproduces
	// Table 4's kernel P2P row: 9.7 softirq hyperthreads sustaining
	// ~4.8 Mpps.
	SMTContentionNum = 30
	SMTContentionDen = 10
)

// ---------------------------------------------------------------------------
// Virtio / vhostuser (Section 3.3).
// ---------------------------------------------------------------------------
const (
	// VhostRingOp is enqueue or dequeue of one descriptor on a vhostuser
	// ring (shared memory, no kernel crossing).
	VhostRingOp sim.Time = 55

	// VirtioGuestRx is guest-side virtio-net receive processing per
	// packet (charged to the guest category).
	VirtioGuestRx sim.Time = 160

	// VirtioGuestTx is guest-side virtio-net transmit processing.
	VirtioGuestTx sim.Time = 150

	// GuestStackPerPacket is the guest kernel's stack traversal cost per
	// packet (reflector application in PVP, netperf/iperf in the TCP
	// tests).
	GuestStackPerPacket sim.Time = 420

	// QemuTapRelay is the extra hop through the QEMU process when a VM
	// uses a tap backend instead of vhostuser ("vhostuser packets do not
	// traverse the userspace QEMU process", Section 5.1): virtio
	// descriptor handling plus notification bookkeeping per packet.
	QemuTapRelay sim.Time = 700

	// QemuPer8Bytes is QEMU's effective relay copy rate (~0.9 ns/byte:
	// two uncached copies of foreign buffers). Together with the fixed
	// relay cost this fits both the paper's 64-byte PVP tap rates and
	// the 1460-byte Figure 8 tap throughputs.
	QemuPer8Bytes sim.Time = 7
)

// ---------------------------------------------------------------------------
// eBPF / XDP execution (Table 5, Section 5.4).
//
// Anchors, single 2.4 GHz core:
//
//	task A (drop only)                 14  Mpps => ~71 ns/pkt
//	task B (parse eth/ipv4, drop)      8.1 Mpps => ~123 ns/pkt
//	task C (B + L2 map lookup, drop)   7.1 Mpps => ~141 ns/pkt
//	task D (B + rewrite + forward)     4.7 Mpps => ~213 ns/pkt
//
// Task A's 71 ns is driver overhead (XDPDriverOverhead) plus a handful of
// instructions. B-A = 52 ns buys header parsing (~45 interpreted
// instructions plus one payload cache miss). C-B = 18 ns is one hash-map
// lookup. D-C = 72 ns is packet rewrite plus the XDP_TX driver transmit.
// ---------------------------------------------------------------------------
const (
	// XDPDriverOverhead is the per-packet driver cost of running any XDP
	// program at the hook point (DMA sync, descriptor recycle on drop).
	XDPDriverOverhead sim.Time = 62

	// EBPFPerInstruction is the cost of one interpreted/JITed eBPF
	// instruction on the simulated core.
	EBPFPerInstruction sim.Time = 1

	// EBPFPacketTouch is the first access to packet payload from an XDP
	// program (cache miss on the DMA'd line).
	EBPFPacketTouch sim.Time = 14

	// EBPFMapLookupHash is one bpf hash-map lookup helper call.
	EBPFMapLookupHash sim.Time = 18

	// EBPFMapLookupArray is one bpf array-map lookup helper call.
	EBPFMapLookupArray sim.Time = 6

	// EBPFHelperBase is the call overhead of any other helper.
	EBPFHelperBase sim.Time = 4

	// XDPTxForward is the driver-side cost of XDP_TX (re-queue packet to
	// the same NIC's tx ring).
	XDPTxForward sim.Time = 55

	// XDPRedirectVeth is bpf_redirect into a veth device (Figure 5 path
	// C / Figure 8c third bar).
	XDPRedirectVeth sim.Time = 68

	// EBPFSandboxPenaltyNum/Den is the throughput penalty of running the
	// *whole* datapath as sandboxed eBPF bytecode at the tc hook rather
	// than native kernel C (Figure 2: 10-20% slower than the kernel
	// module). Effective cost = base * Num / Den.
	EBPFSandboxPenaltyNum = 115
	EBPFSandboxPenaltyDen = 100

	// RxHashSoftware is computing the 5-tuple rxhash in software because
	// XDP cannot access the NIC's hardware hash (Section 5.5 overhead 2).
	RxHashSoftware sim.Time = 21
)

// ---------------------------------------------------------------------------
// Features on the slow path and in the paper's NSX pipeline (Section 5.1).
// ---------------------------------------------------------------------------
const (
	// ConntrackLookup is a conntrack table hit (hash + state check).
	ConntrackLookup sim.Time = 90

	// ConntrackCommit creates a new tracked connection.
	ConntrackCommit sim.Time = 210

	// ConntrackEvict displaces a connection under table pressure:
	// LRU unlink, dual-direction hash removal, and NAT port release.
	ConntrackEvict sim.Time = 300

	// TunnelEncap is Geneve/VXLAN header push including outer header
	// fill-in (route/ARP already cached).
	TunnelEncap sim.Time = 110

	// TunnelDecap is outer header validation and strip.
	TunnelDecap sim.Time = 85

	// RecirculationOverhead is re-injecting a packet into the datapath
	// classifier for another pass (the NSX pipeline does 3 passes).
	RecirculationOverhead sim.Time = 40

	// UpcallCost is a datapath miss handed to ofproto for slow-path
	// translation, including the flow install that follows.
	UpcallCost sim.Time = 60 * sim.Microsecond
)

// ---------------------------------------------------------------------------
// Robustness: restart/upgrade gaps and slow-path degradation (the paper's
// deployment-experience argument for the userspace datapath).
// ---------------------------------------------------------------------------
const (
	// VswitchdRestartGap is how long the userspace datapath is down across
	// a vswitchd restart/upgrade: the process re-execs, re-opens its AF_XDP
	// sockets, and resumes polling. No kernel module is involved, so the
	// NIC keeps DMA-ing into the still-mapped umem rings meanwhile.
	VswitchdRestartGap sim.Time = 500 * sim.Microsecond

	// KernelModuleReloadGap is the equivalent gap for the kernel datapath:
	// openvswitch.ko must be unloaded and reloaded, tearing down the
	// datapath ports and their queues for the duration.
	KernelModuleReloadGap sim.Time = 5 * sim.Millisecond

	// NegativeFlowTTL is the lifetime of the short-lived drop megaflow
	// installed when slow-path translation fails, so subsequent packets of
	// the failing flow drop in the fast path instead of re-upcalling at
	// full cost.
	NegativeFlowTTL sim.Time = 10 * sim.Millisecond

	// UpcallMaxRetries bounds the backoff retries of one transiently
	// failing upcall before it counts as failed for good.
	UpcallMaxRetries = 3

	// RevalFlowCheck is one revalidator liveness check of a single
	// megaflow: read its stats, compare against the last observation,
	// decide keep/evict — the per-flow unit of ovs-vswitchd's revalidator
	// threads, charged to the dedicated revalidator CPU so experiments can
	// report a revalidator duty cycle.
	RevalFlowCheck sim.Time = 90

	// RevalFlowEvict is the additional cost of evicting one idle megaflow
	// (the flow_del round trip and cache invalidation bookkeeping), on top
	// of the check that condemned it.
	RevalFlowEvict sim.Time = 350
)

// ---------------------------------------------------------------------------
// Hardware flow offload (tc/ASAP²-style megaflow offload): established
// flows matched in the NIC's rule memory bypass the PMD's cache hierarchy
// entirely; the host only pays for rule installs and counter readback,
// both on the offload driver thread.
// ---------------------------------------------------------------------------
const (
	// OffloadHit is the host-side cost of a packet the NIC forwarded from
	// its hardware flow table: descriptor bookkeeping only — no metadata
	// init, no checksum, no parse, no cache probe. Near-zero by design;
	// the Mpps headline of the offload scenario is this constant against
	// the ~100 ns software fast path.
	OffloadHit sim.Time = 2

	// OffloadInstall is the driver round trip programming one hardware
	// flow rule (the tc-offload add), charged to the offload engine's
	// thread, never the PMD.
	OffloadInstall sim.Time = 12 * sim.Microsecond

	// OffloadReadbackPerFlow is the per-rule cost of the periodic counter
	// readback sweep that merges hardware hit counts into megaflow stats.
	OffloadReadbackPerFlow sim.Time = 40

	// OffloadTableSize is the default hardware rule-table capacity
	// (other_config:hw-offload-table-size): thousands of rules, as in
	// real SmartNIC rule memories — far below megaflow table sizes.
	OffloadTableSize = 2048

	// OffloadElephantPPS is the default EWMA packet rate above which a
	// megaflow is classed an elephant and pushed to hardware
	// (other_config:hw-offload-elephant-pps).
	OffloadElephantPPS = 100_000

	// OffloadReadbackInterval is the default counter-readback period
	// (other_config:hw-offload-readback-us). It must stay well under the
	// revalidator idle timeout, or hardware-hot flows would look idle to
	// the software stats and be evicted mid-flight.
	OffloadReadbackInterval sim.Time = 1 * sim.Millisecond

	// OffloadRateEWMAPct is the weight (percent) the rate EWMA gives the
	// newest readback interval.
	OffloadRateEWMAPct = 50
)

// ---------------------------------------------------------------------------
// Multi-PMD scaling: rxq auto-load-balancing and transmit-side XPS (OVS's
// pmd-auto-lb and static txq assignment with locked shared txqs).
// ---------------------------------------------------------------------------
const (
	// AutoLBDefaultInterval is the PMD auto-load-balancer's measurement
	// interval in virtual time. OVS defaults to one minute of wall clock;
	// the simulation's windows are milliseconds, so the analog interval is
	// scaled to land a handful of balancer ticks inside one experiment
	// window.
	AutoLBDefaultInterval sim.Time = 5 * sim.Millisecond

	// AutoLBDefaultThresholdPct is the minimum per-PMD load-variance
	// improvement (percent) a dry run must predict before rxqs are
	// actually re-sharded (OVS's pmd-auto-lb-improvement-threshold,
	// default 25).
	AutoLBDefaultThresholdPct = 25

	// XPSTxSpinPerFlush is the per-flush cost of the shared-txq spinlock
	// when more PMDs than txqs force XPS queue sharing: acquired once per
	// tx burst rather than per packet, mirroring the O3 umempool batching.
	XPSTxSpinPerFlush sim.Time = SpinlockPerAcquire
)

// ---------------------------------------------------------------------------
// Latency-experiment fixed terms and jitter (Figures 10 and 11).
// ---------------------------------------------------------------------------
const (
	// WireAndNIC is the one-way wire propagation plus NIC ingress/egress
	// latency between the back-to-back hosts.
	WireAndNIC sim.Time = 3 * sim.Microsecond

	// DPDKContainerCrossing is the extra user/kernel boundary DPDK pays
	// per direction to reach a container veth (AF_PACKET injection +
	// copy), the source of Figure 11's 81/136/241 us DPDK latencies.
	DPDKContainerCrossing sim.Time = 16 * sim.Microsecond
)

// BatchSize is the default packet batch the userspace datapath processes per
// iteration (NETDEV_MAX_BURST in OVS).
const BatchSize = 32

// EMCEntries is the exact-match-cache capacity (8192 entries in OVS,
// 2-way associative).
const EMCEntries = 8192

// SMCEntries is the signature-match-cache capacity (SMC_ENTRIES = 1<<20 in
// OVS, 4-way associative, 4 bytes per entry): two orders of magnitude more
// flows than the EMC in ~4 MB per PMD.
const SMCEntries = 1 << 20

// Link rates used by the paper's testbeds.
const (
	LinkRate10G = 10_000_000_000 // bits/s, Section 5.1 testbed
	LinkRate25G = 25_000_000_000 // bits/s, Section 5.2/5.5 testbed
)

// EthernetOverheadBytes is the per-frame overhead on the wire beyond the
// frame itself (which already includes the FCS): preamble+SFD (8) and the
// inter-frame gap (12). A 64-byte frame therefore occupies 84 byte times,
// giving the classic 14.88 Mpps at 10 GbE.
const EthernetOverheadBytes = 20

// LineRatePPS returns the maximum packets/s of a link for a given frame size
// in bytes (including FCS; preamble and IFG are added here).
func LineRatePPS(linkRateBitsPerSec int64, frameBytes int) float64 {
	wire := float64(frameBytes+EthernetOverheadBytes) * 8
	return float64(linkRateBitsPerSec) / wire
}

// TransmitTime returns the serialization delay of one frame on a link.
func TransmitTime(linkRateBitsPerSec int64, frameBytes int) sim.Time {
	wireBits := float64(frameBytes+EthernetOverheadBytes) * 8
	return sim.Time(wireBits / float64(linkRateBitsPerSec) * float64(sim.Second))
}

// ChecksumCost returns the software checksum cost for a payload of n
// bytes. Small packets (headers hot in cache) run at the O5-calibrated
// rate; larger payloads run at the cold-data rate implied by Figure 8's
// checksum-offload deltas (~0.6 ns/byte: 3.8 -> 8.4 Gbps for 1460-byte
// segments means ~0.9 us of checksumming per segment per side).
func ChecksumCost(n int) sim.Time {
	if n <= 256 {
		return sim.Time(n/8) * ChecksumPer8Bytes
	}
	return sim.Time(n/8) * 5 * ChecksumPer8Bytes
}

// CopyCost returns the memcpy cost for n bytes: L1-resident rate for
// packet-sized copies, a cache-cold rate for bulk (>4 kB) buffers.
func CopyCost(n int) sim.Time {
	per16 := KernelPerByte16
	if n > 4096 {
		per16 = 2 * KernelPerByte16
	}
	c := sim.Time(n/16) * per16
	if c == 0 && n > 0 {
		c = 1
	}
	return c
}

// QemuCopyCost is the QEMU relay's per-packet copy cost.
func QemuCopyCost(n int) sim.Time {
	c := sim.Time(n/8) * QemuPer8Bytes
	if c == 0 && n > 0 {
		c = 1
	}
	return c
}

// CopyCostCold is the fully-uncached copy rate (~0.25 ns/byte) paid by
// processes touching foreign buffers, e.g. QEMU relaying tap packets.
func CopyCostCold(n int) sim.Time {
	c := sim.Time(n/16) * 4 * KernelPerByte16
	if c == 0 && n > 0 {
		c = 1
	}
	return c
}

// SMTContention scales a base cost by the hyperthread-contention factor for
// n concurrently active packet-processing CPUs.
func SMTContention(base sim.Time, n int) sim.Time {
	if n <= 1 {
		return base
	}
	extra := int64(base) * int64(n-1) * SMTContentionNum / (int64(n) * SMTContentionDen)
	return base + sim.Time(extra)
}

// Userspace PMD contention coefficients (hundredths per extra busy
// thread), calibrated against Figure 12's sub-linear 64-byte multi-queue
// scaling: each additional AF_XDP PMD inflates everyone's per-packet cost
// by ~0.47x of the base (shared umem pool locks, softirq cache-line
// bouncing, the software rxhash of Section 5.5); each DPDK PMD by ~0.27x
// (LLC and memory-bandwidth pressure only). These fit the paper's 2/4/6
// queue points within a few percent.
const (
	ContentionAFXDPCentis = 47
	ContentionDPDKCentis  = 27
)

// UserContentionMilli returns the per-packet cost multiplier (x1000) for n
// concurrently busy PMD threads with per-thread coefficient kCentis.
func UserContentionMilli(n, kCentis int) int64 {
	if n <= 1 {
		return 1000
	}
	return 1000 + int64(n-1)*int64(kCentis)*10
}
