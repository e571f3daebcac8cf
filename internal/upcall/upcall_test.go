package upcall

import (
	"errors"
	"reflect"
	"testing"

	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/faultinject"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/perf"
	"ovsxdp/internal/sim"
)

// fakeHost is a datapath reduced to what the slow path asks of one: a flow
// table, a handler CPU, and logs of everything it was told to do.
type fakeHost struct {
	eng   *sim.Engine
	table *dpcls.Classifier
	cpu   *sim.CPU
	// fail is returned by Translate while failing reports true.
	fail    error
	failing func() bool

	translated []sim.Time // virtual instants of every Translate call
	reinjected []*packet.Packet
	reinjectOn []*sim.CPU
	released   []*packet.Packet
}

func (h *fakeHost) hooks() Host {
	return Host{
		Table:   h.table,
		Install: h.table.Insert,
		Remove:  h.table.Remove,
		Translate: func(*flow.Key) (ofproto.Megaflow, error) {
			h.translated = append(h.translated, h.eng.Now())
			if h.failing != nil && h.failing() {
				return ofproto.Megaflow{}, h.fail
			}
			return ofproto.Megaflow{Mask: flow.MaskAll(), Actions: []ofproto.DPAction{{Type: ofproto.DPOutput, Port: 2}}}, nil
		},
		Handler:  func() *sim.CPU { return h.cpu },
		Category: sim.System,
		Reinject: func(p *packet.Packet, cpu *sim.CPU) {
			h.reinjected = append(h.reinjected, p)
			h.reinjectOn = append(h.reinjectOn, cpu)
		},
		Release: func(p *packet.Packet) { h.released = append(h.released, p) },
	}
}

// handler is the handler-thread time charged so far, which must all be in
// the host's category.
func (h *fakeHost) handler() sim.Time { return h.cpu.Busy(sim.System) }

const testSeed = 42

// bed is one queue over a fake host, with the state a datapath would own.
type bed struct {
	eng  *sim.Engine
	cfg  Config
	ctr  Counters
	perf *perf.Stats
	host *fakeHost
	q    *Queue
}

func newBed(cfg Config) *bed {
	b := &bed{eng: sim.NewEngine(testSeed), cfg: cfg, perf: &perf.Stats{}}
	b.host = &fakeHost{eng: b.eng, table: dpcls.New(1), cpu: b.eng.NewCPU("handler")}
	b.q = NewQueue(b.eng, &b.cfg, &b.ctr, b.perf, b.host.hooks())
	return b
}

// key builds the flow key of the n-th test flow.
func key(n int) *flow.Key {
	k := (&flow.Fields{InPort: 1, TPSrc: uint16(n)}).Pack()
	return &k
}

func pkts(n int) []*packet.Packet {
	out := make([]*packet.Packet, n)
	for i := range out {
		out[i] = packet.New(make([]byte, 64))
	}
	return out
}

var transient = &faultinject.FaultError{Kind: faultinject.KindUpcallFailure, Target: "upcall"}

func TestZeroMeansDefault(t *testing.T) {
	var zero Config
	set := Config{ServiceInterval: 7, RetryBase: 9}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"ServiceInterval zero", zero.serviceInterval(), costmodel.UpcallCost},
		{"ServiceInterval set", set.serviceInterval(), sim.Time(7)},
		{"RetryBase zero", zero.retryBase(), costmodel.UpcallCost / 4},
		{"RetryBase set", set.retryBase(), sim.Time(9)},
		{"default NegativeFlowTTL", DefaultConfig().NegativeFlowTTL, costmodel.NegativeFlowTTL},
		{"default QueueCap (inline)", DefaultConfig().QueueCap, 0},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestAdmitCapOverflowPeak: admissions past the cap are refused, counted on
// the datapath and the thread, and released; the peak is the deepest depth.
func TestAdmitCapOverflowPeak(t *testing.T) {
	for _, c := range []struct {
		cap, offered         int
		wantDrops, wantDepth uint64
	}{
		{cap: 4, offered: 3, wantDrops: 0, wantDepth: 3},
		{cap: 4, offered: 4, wantDrops: 0, wantDepth: 4},
		{cap: 4, offered: 16, wantDrops: 12, wantDepth: 4},
		{cap: 1, offered: 5, wantDrops: 4, wantDepth: 1},
	} {
		b := newBed(Config{QueueCap: c.cap})
		ps := pkts(c.offered)
		for i, p := range ps {
			b.q.Admit(key(i), p, nil)
		}
		if b.ctr.UpcallQueueDrops != c.wantDrops || b.perf.UpcallQueueDrops != c.wantDrops {
			t.Errorf("cap %d offered %d: queue drops datapath %d thread %d, want %d",
				c.cap, c.offered, b.ctr.UpcallQueueDrops, b.perf.UpcallQueueDrops, c.wantDrops)
		}
		if b.perf.UpcallQueuePeak != c.wantDepth {
			t.Errorf("cap %d offered %d: peak %d, want %d", c.cap, c.offered, b.perf.UpcallQueuePeak, c.wantDepth)
		}
		if b.ctr.Drops != 0 {
			t.Errorf("cap %d: queue refusals leaked into Drops (%d)", c.cap, b.ctr.Drops)
		}
		if !reflect.DeepEqual(b.host.released, append([]*packet.Packet(nil), ps[min(c.cap, c.offered):]...)) {
			t.Errorf("cap %d offered %d: released %d packets, want the %d refused ones in order",
				c.cap, c.offered, len(b.host.released), c.wantDrops)
		}
	}
}

// TestServiceFIFOAndPacing: distinct flows are serviced in arrival order,
// one per service interval, each reinjected on the CPU it missed on.
func TestServiceFIFOAndPacing(t *testing.T) {
	const interval = 20 * sim.Microsecond
	b := newBed(Config{QueueCap: 8, ServiceInterval: interval})
	ps := pkts(4)
	cpus := []*sim.CPU{b.eng.NewCPU("a"), b.eng.NewCPU("b"), b.eng.NewCPU("a2"), nil}
	for i, p := range ps {
		b.q.Admit(key(i), p, cpus[i])
	}
	b.eng.Run()
	if !reflect.DeepEqual(b.host.reinjected, ps) {
		t.Fatalf("reinjection order differs from arrival order")
	}
	if !reflect.DeepEqual(b.host.reinjectOn, cpus) {
		t.Fatalf("packets reinjected on the wrong CPUs")
	}
	want := []sim.Time{interval, 2 * interval, 3 * interval, 4 * interval}
	if !reflect.DeepEqual(b.host.translated, want) {
		t.Fatalf("service instants %v, want %v", b.host.translated, want)
	}
	if b.host.handler() != 4*costmodel.UpcallCost || b.perf.Cycles[perf.StageUpcall] != 4*costmodel.UpcallCost {
		t.Fatalf("handler charged %v, stage %v, want %v both",
			b.host.handler(), b.perf.Cycles[perf.StageUpcall], 4*costmodel.UpcallCost)
	}
	if b.perf.UpcallCount() != 4 || b.host.table.Len() != 4 {
		t.Fatalf("latency samples %d, flows %d, want 4 and 4", b.perf.UpcallCount(), b.host.table.Len())
	}
}

// TestParkedPacketsOfOneFlowTranslateOnce: the re-probe before translating
// dedups N parked packets of one flow down to one translation and one
// handler charge; all N are reinjected.
func TestParkedPacketsOfOneFlowTranslateOnce(t *testing.T) {
	b := newBed(Config{QueueCap: 8})
	ps := pkts(6)
	for _, p := range ps {
		b.q.Admit(key(0), p, nil)
	}
	b.eng.Run()
	if len(b.host.translated) != 1 || b.host.handler() != costmodel.UpcallCost {
		t.Fatalf("%d translations, handler %v; want 1 and %v", len(b.host.translated), b.host.handler(), costmodel.UpcallCost)
	}
	if !reflect.DeepEqual(b.host.reinjected, ps) {
		t.Fatalf("reinjected %d/%d packets in order", len(b.host.reinjected), len(ps))
	}
	if b.host.table.Len() != 1 {
		t.Fatalf("flows = %d, want 1", b.host.table.Len())
	}
}

// TestBackoffInstants pins when each retry of a transient failure runs:
// attempt k re-enters the queue faultinject.Backoff(seeded rng, base, k)
// after the failed service and is translated one service interval later.
// The fault outlasts costmodel.UpcallMaxRetries, so the last failure is hard.
func TestBackoffInstants(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"explicit", Config{QueueCap: 4, ServiceInterval: 20 * sim.Microsecond, RetryBase: 25 * sim.Microsecond}},
		{"defaults", Config{QueueCap: 4}},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := newBed(c.cfg)
			b.host.fail, b.host.failing = transient, func() bool { return true }
			p := pkts(1)[0]
			b.q.Admit(key(0), p, nil)
			b.eng.Run()

			rng := sim.NewRand(testSeed)
			at := b.cfg.serviceInterval()
			want := []sim.Time{at}
			for k := 1; k <= costmodel.UpcallMaxRetries; k++ {
				at += faultinject.Backoff(rng, b.cfg.retryBase(), k) + b.cfg.serviceInterval()
				want = append(want, at)
			}
			if !reflect.DeepEqual(b.host.translated, want) {
				t.Fatalf("translation instants %v, want %v", b.host.translated, want)
			}
			if got := uint64(costmodel.UpcallMaxRetries); b.ctr.UpcallRetries != got {
				t.Fatalf("retries = %d, want %d", b.ctr.UpcallRetries, got)
			}
			if b.ctr.UpcallErrors != 1 || b.ctr.Drops != 1 || len(b.host.released) != 1 || b.host.released[0] != p {
				t.Fatalf("after exhausting retries: errors %d drops %d released %d, want 1 1 1",
					b.ctr.UpcallErrors, b.ctr.Drops, len(b.host.released))
			}
			if b.perf.UpcallCount() != 1 {
				t.Fatalf("latency samples = %d, want 1 (the hard failure)", b.perf.UpcallCount())
			}
		})
	}
}

// TestRetryBypassesCap: a retried packet was admitted once, so it re-enters
// a queue that new arrivals have meanwhile filled to the cap.
func TestRetryBypassesCap(t *testing.T) {
	const interval = 100 * sim.Microsecond // longer than the ~10us first backoff
	b := newBed(Config{QueueCap: 2, ServiceInterval: interval, RetryBase: 5 * sim.Microsecond})
	failures := 1
	b.host.fail = transient
	b.host.failing = func() bool { failures--; return failures >= 0 }
	ps := pkts(4)
	b.q.Admit(key(0), ps[0], nil)
	b.eng.RunUntil(interval) // ps[0] fails once and is backing off
	if b.ctr.UpcallRetries != 1 || len(b.q.q) != 0 {
		t.Fatalf("retries = %d, depth = %d; want 1 and 0", b.ctr.UpcallRetries, len(b.q.q))
	}
	b.q.Admit(key(1), ps[1], nil)
	b.q.Admit(key(2), ps[2], nil)
	b.q.Admit(key(3), ps[3], nil) // the cap refuses this one
	if b.ctr.UpcallQueueDrops != 1 || len(b.q.q) != 2 {
		t.Fatalf("queue drops = %d, depth = %d; want 1 and 2 (full)", b.ctr.UpcallQueueDrops, len(b.q.q))
	}
	b.eng.RunUntil(interval + 20*sim.Microsecond) // backoff over, next service not yet due
	if len(b.q.q) != 3 {
		t.Fatalf("depth = %d, want 3: the retry must re-enter past the full queue", len(b.q.q))
	}
	b.eng.Run()
	if b.ctr.UpcallQueueDrops != 1 || len(b.host.released) != 1 {
		t.Fatalf("queue drops = %d, released = %d; want 1 and 1", b.ctr.UpcallQueueDrops, len(b.host.released))
	}
	if b.perf.UpcallQueuePeak != 2 {
		t.Fatalf("peak = %d, want 2: the peak tracks admissions", b.perf.UpcallQueuePeak)
	}
	want := []*packet.Packet{ps[1], ps[2], ps[0]}
	if !reflect.DeepEqual(b.host.reinjected, want) {
		t.Fatalf("reinjected %d packets, want ps[1], ps[2], then the retried ps[0]", len(b.host.reinjected))
	}
}

// TestHardFailureNegativeFlow: a non-transient failure is not retried; it
// leaves an exact-match drop flow that shields the slow path until
// NegativeFlowTTL, and none at TTL <= 0.
func TestHardFailureNegativeFlow(t *testing.T) {
	for _, c := range []struct {
		ttl       sim.Time
		wantFlows int
	}{
		{ttl: 500 * sim.Microsecond, wantFlows: 1},
		{ttl: 0, wantFlows: 0},
		{ttl: -1, wantFlows: 0},
	} {
		b := newBed(Config{QueueCap: 4, ServiceInterval: 10 * sim.Microsecond, NegativeFlowTTL: c.ttl})
		b.host.fail, b.host.failing = errors.New("no such table"), func() bool { return true }
		ps := pkts(2)
		b.q.Admit(key(0), ps[0], nil)
		b.eng.RunUntil(10 * sim.Microsecond)
		if b.ctr.UpcallRetries != 0 || b.ctr.UpcallErrors != 1 || b.ctr.Drops != 1 {
			t.Fatalf("ttl %v: retries %d errors %d drops %d, want 0 1 1",
				c.ttl, b.ctr.UpcallRetries, b.ctr.UpcallErrors, b.ctr.Drops)
		}
		if b.host.table.Len() != c.wantFlows {
			t.Fatalf("ttl %v: flows after failure = %d, want %d", c.ttl, b.host.table.Len(), c.wantFlows)
		}
		if c.wantFlows == 0 {
			continue
		}
		e, _ := b.host.table.LookupKey(key(0))
		if e == nil || e.Mask() != flow.MaskAll() || e.Actions != nil {
			t.Fatalf("negative flow = %v, want an exact-match entry with no actions", e)
		}
		// A later packet of the flow parked behind the failure finds the
		// negative flow on re-probe: no second translation.
		b.q.Admit(key(0), ps[1], nil)
		b.eng.RunUntil(10*sim.Microsecond + c.ttl - 1)
		if len(b.host.translated) != 1 || b.host.table.Len() != 1 {
			t.Fatalf("before TTL: %d translations, %d flows; want 1 and 1", len(b.host.translated), b.host.table.Len())
		}
		b.eng.RunUntil(10*sim.Microsecond + c.ttl)
		if b.host.table.Len() != 0 {
			t.Fatalf("negative flow outlived its TTL")
		}
	}
}

// TestFailedInline: the inline path (QueueCap == 0) accounts a failed
// translation through the same routine — counters, negative flow, release —
// without ever touching the queue.
func TestFailedInline(t *testing.T) {
	b := newBed(DefaultConfig())
	p := pkts(1)[0]
	b.q.Failed(key(0), p)
	if b.ctr.UpcallErrors != 1 || b.ctr.Drops != 1 || len(b.host.released) != 1 {
		t.Fatalf("errors %d drops %d released %d, want 1 1 1", b.ctr.UpcallErrors, b.ctr.Drops, len(b.host.released))
	}
	if b.host.table.Len() != 1 || b.eng.Pending() != 1 {
		t.Fatalf("flows %d, pending events %d; want the negative flow and its expiry", b.host.table.Len(), b.eng.Pending())
	}
	b.eng.Run()
	if b.eng.Now() != costmodel.NegativeFlowTTL || b.host.table.Len() != 0 {
		t.Fatalf("negative flow expired at %v with %d flows left, want %v and 0",
			b.eng.Now(), b.host.table.Len(), costmodel.NegativeFlowTTL)
	}
}

// TestSteadyStateZeroAlloc: once the record free list and the queue slice
// have grown, admitting a burst and servicing it allocates nothing.
func TestSteadyStateZeroAlloc(t *testing.T) {
	b := newBed(Config{QueueCap: 8})
	ps := pkts(8)
	k := key(0)
	b.host.table.Insert(*k, flow.MaskAll(), nil) // every service dedups on the installed flow
	cycle := func() {
		for _, p := range ps {
			b.q.Admit(k, p, nil)
		}
		b.eng.Run()
		b.host.reinjected, b.host.reinjectOn = b.host.reinjected[:0], b.host.reinjectOn[:0]
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state admit->service allocates %.1f/op, want 0", allocs)
	}
}
