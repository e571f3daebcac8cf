// Package vdev provides the virtual devices of Sections 3.3 and 3.4: the
// bounded packet queue with wakeup signalling, and the link built from two
// of them that stands for a tap device (kernel-mediated), a vhostuser ring
// pair (shared memory) and a veth pair (across namespaces) alike.
//
// What tells those devices apart is where the crossing is paid, and costs
// are charged by the layers that drive a link (core.LinkPort's cost rows,
// vmsim, containersim); vdev itself only implements the mechanics (bounded
// queues, loss on overflow, wakeup callbacks for interrupt-style consumers).
package vdev

import (
	"fmt"

	"ovsxdp/internal/packet"
)

// DefaultQueueDepth bounds a device queue.
const DefaultQueueDepth = 1024

// Queue is a bounded FIFO of packets with an optional armed wakeup: when a
// packet arrives while the queue is empty and a consumer armed the wakeup,
// the callback fires once (the consumer re-arms after draining, NAPI
// style).
type Queue struct {
	packet.FIFO
	Name  string
	depth int

	wakeFn    func()
	wakeArmed bool

	// Gate, when set and returning true, refuses the push (fault
	// injection: a detached backend or downed device).
	Gate func() bool

	// Stats.
	Enqueued uint64
	Dropped  uint64
	// GateDrops counts pushes refused by an injected gate fault.
	GateDrops uint64
}

// NewQueue builds a queue with the given depth (<=0 selects the default).
func NewQueue(name string, depth int) *Queue {
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	return &Queue{Name: name, depth: depth}
}

// Push enqueues a packet. A refused packet — overflow or an injected gate —
// is counted and released here, so no caller has to. It fires the armed
// wakeup when the queue transitions from empty.
func (q *Queue) Push(p *packet.Packet) bool {
	if q.Gate != nil && q.Gate() {
		q.GateDrops++
		p.Release()
		return false
	}
	if q.Len() >= q.depth {
		q.Dropped++
		p.Release()
		return false
	}
	wasEmpty := q.Len() == 0
	q.Append(p)
	q.Enqueued++
	if wasEmpty && q.wakeArmed && q.wakeFn != nil {
		q.wakeArmed = false
		q.wakeFn()
	}
	return true
}

// SetWakeup installs the wakeup callback.
func (q *Queue) SetWakeup(fn func()) { q.wakeFn = fn }

// ArmWakeup requests a callback at the next empty-to-nonempty transition;
// if packets are already waiting the callback fires immediately.
func (q *Queue) ArmWakeup() {
	if q.Len() > 0 && q.wakeFn != nil {
		q.wakeFn()
		return
	}
	q.wakeArmed = true
}

// String summarizes occupancy.
func (q *Queue) String() string {
	return fmt.Sprintf("%s{%d/%d, drop=%d}", q.Name, q.Len(), q.depth, q.Dropped)
}

// Link is a virtual device as the switch sees it: one ring toward the peer
// and one back. The peer is a guest behind a tap (Section 3.3 path A: the
// kernel and QEMU sit between) or behind vhostuser rings (path B: shared
// memory, no kernel crossing), the kernel stack itself, or a container
// namespace at the far end of a veth pair (Section 3.4).
type Link struct {
	Name string
	// ToPeer carries what the switch sends; FromPeer what the peer sends.
	ToPeer, FromPeer *Queue
}

// NewLink builds a link with default-depth rings.
func NewLink(name string) *Link {
	return &Link{
		Name:     name,
		ToPeer:   NewQueue(name+":to-peer", 0),
		FromPeer: NewQueue(name+":from-peer", 0),
	}
}
