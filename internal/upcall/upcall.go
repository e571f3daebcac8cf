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

// Config is the slow path's tunables (the upcall-* and negative-flow-ttl-us
// other_config keys).
type Config struct {
	// QueueCap bounds the queue of packets awaiting translation — the
	// per-port netlink socket buffer whose overflow the kernel reports as
	// ENOBUFS, and its per-PMD netdev analog. Zero keeps the upcall inline
	// on the thread that missed, as dpif-netdev does.
	QueueCap int
	// ServiceInterval is the handler thread's per-upcall service time when
	// the queue is bounded (its service rate is the inverse); zero defaults
	// to costmodel.UpcallCost.
	ServiceInterval sim.Time
	// RetryBase seeds the exponential backoff applied when translation
	// fails transiently; zero defaults to UpcallCost/4.
	RetryBase sim.Time
	// NegativeFlowTTL is the lifetime of the drop flow installed when an
	// upcall fails for good, shielding the slow path from the failing flow;
	// <= 0 disables the negative flow.
	NegativeFlowTTL sim.Time
}

// DefaultConfig is the inline slow path with the calibrated negative-flow
// lifetime — what both datapaths start from.
func DefaultConfig() Config {
	return Config{NegativeFlowTTL: costmodel.NegativeFlowTTL}
}

func (c *Config) serviceInterval() sim.Time {
	if c.ServiceInterval > 0 {
		return c.ServiceInterval
	}
	return costmodel.UpcallCost
}

func (c *Config) retryBase() sim.Time {
	if c.RetryBase > 0 {
		return c.RetryBase
	}
	return costmodel.UpcallCost / 4
}

// Counters are the datapath-wide tallies the slow path writes. Each
// datapath embeds one block, shared by all its queues.
type Counters struct {
	// UpcallErrors counts translations that failed for good.
	UpcallErrors uint64
	// UpcallQueueDrops counts packets refused because a bounded upcall
	// queue was full (the ENOBUFS analog); they are not in Drops.
	UpcallQueueDrops uint64
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
	Install func(key flow.Key, mask flow.Mask, actions []ofproto.DPAction) *dpcls.Entry
	// Remove uninstalls an expired negative flow together with whatever
	// the provider caches above Table.
	Remove func(e *dpcls.Entry) bool
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
	eng  *sim.Engine
	cfg  *Config
	ctr  *Counters
	perf *perf.Stats
	host Host

	// q parks admitted packets in arrival order; busy is set while a
	// handler service event is in flight; free recycles records, so the
	// steady state allocates nothing.
	q     []*pending
	busy  bool
	free  []*pending
	timer *sim.Timer
}

// NewQueue builds a queue for host. cfg and ctr point at the owning
// datapath's live tunables and counters (so a SetConfig takes effect on the
// next miss); st is the perf block of the thread that raises the misses.
func NewQueue(eng *sim.Engine, cfg *Config, ctr *Counters, st *perf.Stats, host Host) *Queue {
	q := &Queue{eng: eng, cfg: cfg, ctr: ctr, perf: st, host: host}
	q.timer = eng.NewTimer(q.service)
	return q
}

// Admit parks a missed packet for the handler thread, or drops it when the
// queue is full (ENOBUFS). The caller has already counted the miss, which
// matches the kernel's lookup accounting for refused packets too.
func (q *Queue) Admit(key *flow.Key, p *packet.Packet, cpu *sim.CPU) {
	if len(q.q) >= q.cfg.QueueCap {
		q.ctr.UpcallQueueDrops++
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
// interval from now — the configurable service rate that makes the queue a
// real M/D/1-style bottleneck instead of an inline call.
func (q *Queue) kick() {
	if q.busy || len(q.q) == 0 {
		return
	}
	q.busy = true
	q.timer.Schedule(q.cfg.serviceInterval())
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
	// Pop by shifting down: the queue is at most QueueCap plus in-flight
	// retries deep, and keeping the slice's base means append never
	// reallocates in steady state.
	u := q.q[0]
	n := copy(q.q, q.q[1:])
	q.q[n] = nil
	q.q = q.q[:n]
	defer q.kick()

	// Several packets of one flow may park before the first resolves:
	// re-probe the flow table so only one translation happens.
	if e, _ := q.host.Table.LookupKey(&u.key); e != nil {
		q.host.Reinject(u.pkt, u.cpu)
		q.recycle(u)
		return
	}

	q.host.Handler().Consume(q.host.Category, costmodel.UpcallCost)
	q.perf.Add(perf.StageUpcall, costmodel.UpcallCost)
	mf, err := q.host.Translate(&u.key)
	if err != nil {
		if te, ok := err.(interface{ Transient() bool }); ok && te.Transient() &&
			u.attempt < costmodel.UpcallMaxRetries {
			u.attempt++
			q.ctr.UpcallRetries++
			delay := faultinject.Backoff(q.eng.Rand(), q.cfg.retryBase(), u.attempt)
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
	if ttl := q.cfg.NegativeFlowTTL; ttl > 0 {
		e := q.host.Install(*key, flow.MaskAll(), nil)
		q.eng.Schedule(ttl, func() { q.host.Remove(e) })
	}
	q.host.Release(p)
}
