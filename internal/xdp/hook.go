// Package xdp implements the XDP hook runtime: the attachment point in each
// NIC driver where a verified eBPF program inspects every received packet
// before the kernel allocates any socket buffer (paper Section 3.1).
//
// Two vendor attachment models are implemented, following Figure 6:
//
//   - ModelAllQueues (Intel): one program sees every queue's traffic.
//   - ModelPerQueue (Mellanox): programs attach to individual receive
//     queues; hardware ntuple steering decides which queue (and therefore
//     which program) sees a packet.
//
// The package also carries the paper's program library: the minimal
// pass-everything-to-AF_XDP program OVS installs, the Table 5 benchmark
// tasks A-D, the container veth-redirect program (Figure 5 path C), and the
// Section 3.5 L4 load-balancer example.
package xdp

import (
	"fmt"

	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/ebpf"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/sim"
)

// AttachModel selects the vendor attachment style of Figure 6.
type AttachModel int

// Attachment models.
const (
	// ModelAllQueues attaches one program for the whole device (Intel).
	ModelAllQueues AttachModel = iota
	// ModelPerQueue attaches programs to chosen queues (Mellanox).
	ModelPerQueue
)

// String names the model.
func (m AttachModel) String() string {
	if m == ModelAllQueues {
		return "all-queues"
	}
	return "per-queue"
}

// Mode is the driver execution mode: native driver support or the
// universal-but-slower generic (skb) fallback the paper mentions for NICs
// without full AF_XDP support.
type Mode int

// Execution modes.
const (
	ModeDriver  Mode = iota // XDP_DRV: run before skb allocation
	ModeGeneric             // XDP_SKB: after skb allocation, extra copy
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeDriver {
		return "driver"
	}
	return "generic"
}

// Hook is a device's XDP attachment point.
type Hook struct {
	model  AttachModel
	mode   Mode
	global *ebpf.Program
	// perQueue is indexed by receive queue; nil slots (and queues past its
	// end) have no program. attached counts the non-nil slots.
	perQueue []*ebpf.Program
	attached int

	// ctx and res are reused across Run calls: Program.Exec retains
	// neither, so one of each per hook keeps the per-packet path free of
	// allocation and of copying the result around.
	ctx ebpf.Context
	res ebpf.Result
}

// NewHook returns a hook with the given attachment model and mode.
func NewHook(model AttachModel, mode Mode) *Hook {
	return &Hook{model: model, mode: mode}
}

// Attach installs prog for all queues. The program must have passed the
// verifier (Load), mirroring the kernel's refusal to attach unverified
// bytecode.
func (h *Hook) Attach(prog *ebpf.Program) error {
	if prog != nil && !prog.Verified() {
		return fmt.Errorf("xdp: program %q has not passed the verifier", prog.Name)
	}
	h.global = prog
	return nil
}

// AttachQueue installs prog for one receive queue. Only the per-queue model
// supports this (Figure 6b).
func (h *Hook) AttachQueue(queue int, prog *ebpf.Program) error {
	if h.model != ModelPerQueue {
		return fmt.Errorf("xdp: %s attachment does not support per-queue programs", h.model)
	}
	if prog != nil && !prog.Verified() {
		return fmt.Errorf("xdp: program %q has not passed the verifier", prog.Name)
	}
	if queue < 0 {
		return fmt.Errorf("xdp: no receive queue %d", queue)
	}
	for len(h.perQueue) <= queue {
		h.perQueue = append(h.perQueue, nil)
	}
	if h.perQueue[queue] != nil {
		h.attached--
	}
	if prog != nil {
		h.attached++
	}
	h.perQueue[queue] = prog
	return nil
}

// Detach removes all programs.
func (h *Hook) Detach() {
	h.global = nil
	h.perQueue = nil
	h.attached = 0
}

// ProgramFor returns the program that applies to a packet arriving on
// queue, or nil if none is attached (packet goes to the network stack).
func (h *Hook) ProgramFor(queue int) *ebpf.Program {
	if h.model == ModelPerQueue {
		// In the per-queue model, queues without a program bypass XDP
		// (Figure 6b: queues 1-2 feed the network stack directly).
		if uint(queue) < uint(len(h.perQueue)) {
			return h.perQueue[queue]
		}
		return nil
	}
	return h.global
}

// HasProgram reports whether any program is attached.
func (h *Hook) HasProgram() bool {
	return h.global != nil || h.attached > 0
}

// Run executes the applicable program on a packet arriving at queue. It
// returns the program result and the softirq-context cost of running it.
// When no program applies, it returns a pass verdict at zero cost. The
// result is the hook's own and is overwritten by the next Run.
func (h *Hook) Run(queue int, pkt []byte, ifindex uint32) (*ebpf.Result, sim.Time, error) {
	res := &h.res
	prog := h.ProgramFor(queue)
	if prog == nil {
		*res = ebpf.Result{Action: ebpf.XDPPass}
		return res, 0, nil
	}
	h.ctx = ebpf.Context{Packet: pkt, IngressIface: ifindex, RxQueue: uint32(queue)}
	err := prog.Exec(&h.ctx, res)
	h.ctx.Packet = nil // do not pin the frame past the run
	if err != nil {
		return res, 0, err
	}
	cost := ExecCost(res)
	if h.mode == ModeGeneric {
		// Generic mode runs after skb allocation and pays an extra
		// copy ("a fallback mode that works universally at the cost of
		// an extra packet copy").
		cost += costmodel.SkbAlloc + costmodel.CopyCost(len(pkt))
	}
	return res, cost, nil
}

// Verdicts receives each packet the driver stage is finished with,
// according to its verdict. A nil callback means the device has no consumer
// for that verdict and the packet is released.
type Verdicts struct {
	// Pass receives packets bound for the host network stack: XDP_PASS, or
	// no program attached to the queue.
	Pass func(p *packet.Packet)
	// ToXsk receives packets redirected into an AF_XDP socket, with the
	// xskmap value (socket id).
	ToXsk func(sock uint32, p *packet.Packet)
	// ToDev receives packets redirected to another device (devmap
	// ifindex target).
	ToDev func(ifindex uint32, p *packet.Packet)
	// Tx transmits the (possibly rewritten) packet back out the device it
	// arrived on (XDP_TX).
	Tx func(p *packet.Packet)
}

// Receive is the driver's XDP stage for one packet taken from receive queue
// q of device ifindex, run on behalf of the softirq-context consumer: it
// charges the driver overhead plus the program's cost to cpu and hands the
// packet to the verdict's callback. Every path ends the packet's life here
// or passes it on: a drop, an abort, a faulting program, a redirect with no
// target and a verdict with no consumer all release it.
func (h *Hook) Receive(cpu *sim.CPU, q int, p *packet.Packet, ifindex uint32, v *Verdicts) {
	cpu.Consume(sim.Softirq, costmodel.XDPDriverOverhead)
	if !h.HasProgram() {
		deliver(v.Pass, p)
		return
	}
	res, cost, err := h.Run(q, p.Data, ifindex)
	cpu.Consume(sim.Softirq, cost)
	if err != nil {
		p.Release() // a faulting program drops the packet (XDP_ABORTED)
		return
	}
	switch res.Action {
	case ebpf.XDPPass:
		deliver(v.Pass, p)
	case ebpf.XDPTx:
		cpu.Consume(sim.Softirq, costmodel.XDPTxForward)
		deliver(v.Tx, p)
	case ebpf.XDPRedirect:
		m := res.RedirectMap
		if m == nil { // XDP_REDIRECT returned without a redirect_map call
			p.Release()
			return
		}
		tgt, ok := m.Target(res.RedirectIndex)
		switch {
		case !ok:
			p.Release()
		case m.Type() == ebpf.MapTypeXskMap && v.ToXsk != nil:
			v.ToXsk(tgt, p)
		case m.Type() == ebpf.MapTypeDevMap && v.ToDev != nil:
			cpu.Consume(sim.Softirq, costmodel.XDPRedirectVeth)
			v.ToDev(tgt, p)
		default:
			p.Release()
		}
	default: // XDP_DROP / XDP_ABORTED
		p.Release()
	}
}

// deliver hands p to fn, or releases it when the verdict has no consumer.
func deliver(fn func(*packet.Packet), p *packet.Packet) {
	if fn != nil {
		fn(p)
	} else {
		p.Release()
	}
}

// ExecCost converts a program execution result into virtual time, using the
// Table 5 calibration: per instruction, per map lookup, and a one-time
// packet cache-miss charge.
func ExecCost(res *ebpf.Result) sim.Time {
	c := sim.Time(res.Insns)*costmodel.EBPFPerInstruction +
		sim.Time(res.HashLookups)*costmodel.EBPFMapLookupHash +
		sim.Time(res.ArrayLookups)*costmodel.EBPFMapLookupArray +
		sim.Time(res.OtherHelpers)*costmodel.EBPFHelperBase
	if res.TouchedPacket {
		c += costmodel.EBPFPacketTouch
	}
	return c
}
