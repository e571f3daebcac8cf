// Package upcall is the slow path every datapath shares: a datapath has
// vports, flows and misses, and the misses go to one userspace handler
// whichever datapath raised them (ofproto-dpif-upcall in OVS). The bounded
// queue, the retry of transient translation faults and the negative flow a
// hard failure leaves behind are written here once; the userspace datapath
// runs one Queue per PMD thread, the kernel datapaths one per flow table.
package upcall

import (
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/faultinject"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/perf"
	"ovsxdp/internal/sim"
)

// Counters are the datapath-wide tallies the slow path writes. Each
// datapath embeds one block, shared by all its queues; a queue's refusals
// (the ENOBUFS analog, not in Drops) are the raising thread's
// perf.Stats.UpcallQueueDrops.
type Counters struct {
	// UpcallErrors counts translations that failed for good.
	UpcallErrors uint64
	// UpcallRetries counts backoff retries of transient upcall failures.
	UpcallRetries uint64
	// Drops counts packets lost in the datapath: the slow path adds the
	// packets of failed upcalls, the fast path its policy, dead-port and
	// meter drops.
	Drops uint64
}

// Host is everything the slow path asks of the datapath that raised a miss:
// which flow table to probe and install into, which thread the handler
// burns, how a resolved packet gets back on the fast path or is given up,
// and what removing an expired negative flow must invalidate.
type Host struct {
	// Table is the flow table the miss was raised against; it is re-probed
	// before translating.
	Table *dpcls.Classifier
	// Install installs a flow into Table under the provider's own
	// discipline (the eBPF flavor narrows every mask to exact-match).
	Install func(key flow.Key, mask flow.Mask, actions []ofproto.DPAction) dpcls.Ref
	// Remove uninstalls an expired negative flow together with whatever
	// the provider caches above Table; a stale ref removes nothing.
	Remove func(r dpcls.Ref) bool
	// Translate resolves a key on the provider's registered upcall handler.
	Translate func(key *flow.Key) (ofproto.Megaflow, error)
	// Handler returns the handler thread's CPU, charged in Category.
	Handler  func() *sim.CPU
	Category sim.Category
	// Reinject runs a packet whose flow is now installed through the fast
	// path without counting it as processed again; cpu is the context the
	// miss was raised in.
	Reinject func(p *packet.Packet, cpu *sim.CPU)
	// Release gives up a packet the slow path dropped.
	Release func(p *packet.Packet)
}

// pending is one packet parked in a bounded upcall queue.
type pending struct {
	key     flow.Key
	pkt     *packet.Packet
	cpu     *sim.CPU // context the miss was raised in, for Reinject
	enq     sim.Time // admission time, for upcall latency accounting
	attempt int      // backoff retries consumed so far
}

// Queue is one bounded upcall queue and the handler that drains it.
type Queue struct {
	eng *sim.Engine
	// queueCap points at the owning datapath's upcall-queue-cap: the bound
	// on packets awaiting translation, the per-port netlink socket buffer
	// whose overflow the kernel reports as ENOBUFS, and its per-PMD netdev
	// analog. Zero keeps the upcall inline on the thread that missed, as
	// dpif-netdev does.
	queueCap *int
	ctr      *Counters
	perf     *perf.Stats
	host     Host

	// q parks admitted packets in arrival order; busy is set while a
	// handler service event is in flight; free recycles records, so the
	// steady state allocates nothing.
	q     []*pending
	busy  bool
	free  []*pending
	timer *sim.Timer
}

// NewQueue builds a queue for host. queueCap and ctr point at the owning
// datapath's live cap and counters (so a SetConfig takes effect on the next
// miss); st is the perf block of the thread that raises the misses.
func NewQueue(eng *sim.Engine, queueCap *int, ctr *Counters, st *perf.Stats, host Host) *Queue {
	q := &Queue{eng: eng, queueCap: queueCap, ctr: ctr, perf: st, host: host}
	q.timer = eng.NewTimer(q.service)
	return q
}

// Miss takes a packet whose key missed on cpu. A bounded queue parks it
// (Admit); otherwise it is translated inline on cpu, the upcall charged in
// the host's category — dpif-netdev's way, and the kernel's legacy netlink
// path. ok means an inline translation the caller installs; a failed one
// drops the packet as Failed says.
func (q *Queue) Miss(key *flow.Key, p *packet.Packet, cpu *sim.CPU) (mf ofproto.Megaflow, ok bool) {
	if *q.queueCap > 0 {
		q.Admit(key, p, cpu)
		return mf, false
	}
	before := cpu.BusyTotal()
	cpu.Consume(q.host.Category, costmodel.UpcallCost)
	q.perf.Add(perf.StageUpcall, costmodel.UpcallCost)
	mf, err := q.host.Translate(key)
	q.perf.AddUpcall(cpu.BusyTotal() - before)
	if err != nil {
		q.Failed(key, p)
		return mf, false
	}
	return mf, true
}

// Admit parks a missed packet for the handler thread, or drops it when the
// queue is full (ENOBUFS). The caller has already counted the miss, which
// matches the kernel's lookup accounting for refused packets too.
func (q *Queue) Admit(key *flow.Key, p *packet.Packet, cpu *sim.CPU) {
	if len(q.q) >= *q.queueCap {
		q.perf.UpcallQueueDrops++
		q.host.Release(p)
		return
	}
	var u *pending
	if n := len(q.free); n > 0 {
		u = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		u = new(pending)
	}
	*u = pending{key: *key, pkt: p, cpu: cpu, enq: q.eng.Now()}
	q.q = append(q.q, u)
	if n := uint64(len(q.q)); n > q.perf.UpcallQueuePeak {
		q.perf.UpcallQueuePeak = n
	}
	q.kick()
}

// recycle returns a serviced record to the free list.
func (q *Queue) recycle(u *pending) {
	*u = pending{}
	q.free = append(q.free, u)
}

// kick schedules the next queued upcall for service one handler service
// interval from now — the service rate that makes the queue a real
// M/D/1-style bottleneck instead of an inline call.
func (q *Queue) kick() {
	if q.busy || len(q.q) == 0 {
		return
	}
	q.busy = true
	q.timer.Schedule(costmodel.UpcallServiceInterval)
}

// service handles the oldest parked upcall on the handler thread: translate
// (retrying transient faults with exponential backoff in virtual time),
// install the flow or a negative flow, and reinject the parked packet
// through the fast path.
func (q *Queue) service() {
	q.busy = false
	if len(q.q) == 0 {
		return
	}
	// Pop by shifting down: the queue is at most its cap plus in-flight
	// retries deep, and keeping the slice's base means append never
	// reallocates in steady state.
	u := q.q[0]
	n := copy(q.q, q.q[1:])
	q.q[n] = nil
	q.q = q.q[:n]
	defer q.kick()

	// Several packets of one flow may park before the first resolves:
	// re-probe the flow table so only one translation happens.
	if e, _, _ := q.host.Table.LookupKey(&u.key); e != nil {
		q.host.Reinject(u.pkt, u.cpu)
		q.recycle(u)
		return
	}

	// The handler thread pays for the translation; the raising thread's
	// stages stay what its own CPU spent, and it keeps the upcall's count
	// and latency (AddUpcall below).
	q.host.Handler().Consume(q.host.Category, costmodel.UpcallCost)
	mf, err := q.host.Translate(&u.key)
	if err != nil {
		if te, ok := err.(interface{ Transient() bool }); ok && te.Transient() &&
			u.attempt < costmodel.UpcallMaxRetries {
			u.attempt++
			q.ctr.UpcallRetries++
			delay := faultinject.Backoff(q.eng.Rand(), costmodel.UpcallRetryBase, u.attempt)
			q.eng.Schedule(delay, func() {
				// Retries bypass the cap: the packet was admitted once.
				q.q = append(q.q, u)
				q.kick()
			})
			return
		}
		q.perf.AddUpcall(q.eng.Now() - u.enq)
		q.Failed(&u.key, u.pkt)
		q.recycle(u)
		return
	}
	q.host.Install(u.key, mf.Mask, mf.Actions)
	q.perf.AddUpcall(q.eng.Now() - u.enq)
	q.host.Reinject(u.pkt, u.cpu)
	q.recycle(u)
}

// Failed accounts an upcall that failed for good — on the inline path or
// after a queued one ran out of retries — and drops its packet. A
// short-lived drop flow is left behind so later packets of the failing flow
// drop in the fast path instead of re-upcalling (and re-failing) at full
// cost; it expires after NegativeFlowTTL, giving the flow a fresh chance
// once the slow path recovers.
func (q *Queue) Failed(key *flow.Key, p *packet.Packet) {
	q.ctr.UpcallErrors++
	q.ctr.Drops++
	r := q.host.Install(*key, flow.MaskAll(), nil)
	q.eng.Schedule(costmodel.NegativeFlowTTL, func() { q.host.Remove(r) })
	q.host.Release(p)
}
