// Package kernelsim models the Linux kernel side of the paper: NAPI
// softirq processing, the in-kernel OVS datapath (the architecture the
// paper migrates away from), its eBPF-at-tc variant (Figure 2's third bar),
// and the kernel cost helpers the socket-level simulations charge.
//
// CPU time spent here lands in the Softirq and System categories, which is
// what makes Table 4's per-category comparison possible.
package kernelsim

import (
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/sim"
)

// NAPIBudget is the packet budget per softirq poll iteration, as in Linux.
const NAPIBudget = 64

// PollSource is what a NAPI actor drains; *nicsim.Queue (a hardware queue
// behind a moderated interrupt) and *vdev.Queue (a virtual device ring) both
// are one.
type PollSource interface {
	// Pop removes up to max packets.
	Pop(max int) []*packet.Packet
	// ArmWakeup requests a wakeup on the next packet arrival.
	ArmWakeup()
	// SetWakeup installs the wakeup callback.
	SetWakeup(func())
}

// NAPIActor drives one queue in softirq context: woken by an interrupt, it
// polls up to NAPIBudget packets per iteration, processes them via the
// handler, and re-arms the interrupt when the queue runs dry — the
// adaptive interrupt/poll switching Section 5.3 credits for the kernel's
// latency behaviour.
type NAPIActor struct {
	Eng *sim.Engine
	CPU *sim.CPU
	Src PollSource
	// Handler processes a batch; all costs are charged to CPU by the
	// handler itself.
	Handler func(cpu *sim.CPU, pkts []*packet.Packet)
	// Category is the accounting bucket (Softirq on hosts, Guest inside
	// VMs).
	Category sim.Category

	running bool
	stopped bool
	// pollTimer rearms poll without a per-iteration closure.
	pollTimer *sim.Timer
	// Polls and Packets count activity.
	Polls   uint64
	Packets uint64
}

// Start installs the wakeup and arms it.
func (a *NAPIActor) Start() {
	if a.Category == 0 {
		a.Category = sim.Softirq
	}
	if a.pollTimer == nil {
		a.pollTimer = a.Eng.NewTimer(a.poll)
	}
	a.Src.SetWakeup(a.wake)
	a.Src.ArmWakeup()
}

// Stop parks the actor: the in-flight poll finishes its batch and no
// further polls or wakeups run until Resume. Arrivals keep accumulating
// (and overflowing) in the source queue — the module-unloaded window of a
// kernel datapath reload.
func (a *NAPIActor) Stop() { a.stopped = true }

// Resume restarts polling after a Stop, draining whatever backlog built up
// and re-arming the interrupt.
func (a *NAPIActor) Resume() {
	a.stopped = false
	a.Src.ArmWakeup()
	a.wake()
}

func (a *NAPIActor) wake() {
	if a.running || a.stopped {
		return
	}
	a.running = true
	a.pollTimer.Schedule(0)
}

func (a *NAPIActor) poll() {
	if a.stopped {
		// Parked: leave arrivals queued and do not re-arm; Resume picks
		// the backlog back up.
		a.running = false
		return
	}
	pkts := a.Src.Pop(NAPIBudget)
	if len(pkts) == 0 {
		a.running = false
		a.Src.ArmWakeup()
		return
	}
	a.Polls++
	a.Packets += uint64(len(pkts))
	a.Handler(a.CPU, pkts)
	// Continue polling once the CPU has finished this batch's work.
	next := a.CPU.FreeAt()
	if now := a.Eng.Now(); next < now {
		next = now
	}
	a.pollTimer.ScheduleAt(next)
}

// --- Socket-level cost helpers -------------------------------------------------

// SocketCosts bundles the per-operation kernel costs a TCP/UDP endpoint
// pays; the transport simulations charge these against host or guest CPUs.
type SocketCosts struct{}

// SendCost returns the kernel cost of send(2) of n bytes: syscall entry,
// transmit-side stack traversal, and the user-to-kernel copy.
func (SocketCosts) SendCost(n int) sim.Time {
	return costmodel.SyscallBase + costmodel.KernelStackTxPerPacket + costmodel.CopyCost(n)
}

// RecvCost returns the kernel cost of receiving n bytes into userspace:
// receive-side stack traversal plus the kernel-to-user copy (the syscall
// is usually amortized by blocking reads).
func (SocketCosts) RecvCost(n int) sim.Time {
	return costmodel.KernelStackRxPerPacket + costmodel.CopyCost(n)
}

// SoftirqRxCost returns the softirq-side cost of receiving one frame from
// a driver into the stack: skb allocation plus protocol processing.
func (SocketCosts) SoftirqRxCost(n int) sim.Time {
	return costmodel.SkbAlloc + costmodel.KernelDriverRx + costmodel.KernelStackRxPerPacket
}
