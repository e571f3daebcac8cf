// Package sim provides the deterministic discrete-event simulation engine
// that underpins every experiment in this repository.
//
// The paper's evaluation measures nanosecond-scale packet-processing paths on
// real hardware. Timing real Go code at that scale is unreliable (garbage
// collection, scheduler noise), so instead the datapaths in this repository
// execute their real data-structure logic while *charging* calibrated costs
// in virtual nanoseconds to simulated CPUs. The engine orders all work on a
// single virtual clock, which makes every run bit-for-bit reproducible.
//
// The engine is intentionally single-goroutine: events run one at a time in
// timestamp order (ties broken by scheduling order), so simulated code needs
// no locking and experiments are deterministic for a given seed.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. Durations are also expressed as Time.
type Time int64

// Common durations, mirroring time.Duration conventions.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit, e.g. "1.5ms".
func (t Time) String() string {
	switch abs := math.Abs(float64(t)); {
	case abs >= float64(Second):
		return fmt.Sprintf("%.3fs", t.Seconds())
	case abs >= float64(Millisecond):
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case abs >= float64(Microsecond):
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Engine is a discrete-event simulator with a virtual clock. Events live in
// a slab-backed hierarchical timer wheel (see wheel.go); scheduling and
// dispatch allocate nothing in steady state.
//
// An Engine also owns the simulation's CPUs and its deterministic random
// number generator, so that a single seed fully determines an experiment.
type Engine struct {
	now      Time
	seq      uint64
	q        *evQueue
	executed uint64
	stopped  bool
	cpus     []*CPU
	rng      *Rand
	streams  map[string]*Rand
}

// NewEngine returns an engine whose clock starts at zero and whose random
// stream is derived from seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{q: newEvQueue(), rng: NewRand(seed), streams: make(map[string]*Rand)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rng }

// Stream returns the engine's child stream named key, forked from Rand the
// first time the key is asked for: everything drawing under one key draws
// from one sequence, and a key nobody asks for leaves Rand where it was.
func (e *Engine) Stream(key string) *Rand {
	if e.streams[key] == nil {
		e.streams[key] = e.rng.Fork()
	}
	return e.streams[key]
}

// Schedule runs fn after delay d. A negative delay is treated as zero.
func (e *Engine) Schedule(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.ScheduleAt(e.now+d, fn)
}

// ScheduleAt runs fn at absolute virtual time t. Scheduling in the past is an
// error in the simulation logic and panics to surface the bug immediately.
func (e *Engine) ScheduleAt(t Time, fn func()) { e.file(t, e.draw(t), fn) }

// draw validates t and draws the sequence number of one scheduled event,
// counting it pending. Every way of scheduling (ScheduleAt, a Timer arm, a
// Deadlines push) draws exactly one, which is what keeps same-seed runs
// byte-identical across queue implementations.
func (e *Engine) draw(t Time) uint64 {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.q.live++
	return e.seq
}

// file puts a slab record for fn under (at, seq) in the queue and returns
// its index. The seq need not be the newest: a Deadlines head is filed
// under the seq its push drew.
func (e *Engine) file(at Time, seq uint64, fn func()) int32 {
	idx := e.q.alloc()
	r := &e.q.slab[idx]
	r.at, r.seq, r.fn = at, seq, fn
	e.q.count++
	e.q.place(idx)
	return idx
}

// dispatch runs the record at idx: it advances the clock, frees the record
// before invoking the callback (so the callback can rearm or reuse it), and
// disarms any owning Timer.
func (e *Engine) dispatch(idx int32) {
	r := &e.q.slab[idx]
	at, fn := r.at, r.fn
	if r.timer != nil {
		r.timer.idx = -1
	}
	e.q.freeRec(idx)
	e.q.live--
	e.now = at
	e.executed++
	fn()
}

// Run executes events until none remain or Stop is called.
func (e *Engine) Run() { e.runDue(math.MaxInt64) }

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t. Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t Time) {
	e.runDue(t)
	if e.now < t {
		e.now = t
	}
}

// runDue dispatches events due at or before limit, in (at, seq) order, until
// none is left or Stop is called.
func (e *Engine) runDue(limit Time) {
	e.stopped = false
	for !e.stopped {
		idx := e.q.popDue(limit)
		if idx < 0 {
			return
		}
		e.dispatch(idx)
	}
}

// Stop halts Run or RunUntil after the current event completes. Pending
// events are retained and a subsequent Run resumes them.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of events waiting to run, every queued
// Deadlines entry included and cancelled timers excluded.
func (e *Engine) Pending() int { return e.q.live }

// Executed reports the total number of events run so far (the events/pkt
// and events/wall-s accounting of the scenarios and `go run ./benchmark`).
func (e *Engine) Executed() uint64 { return e.executed }

// NewCPU allocates a simulated CPU (one hardware hyperthread) and registers
// it with the engine for utilization reporting.
func (e *Engine) NewCPU(name string) *CPU {
	c := &CPU{engine: e, name: name}
	e.cpus = append(e.cpus, c)
	return c
}

// CPUs returns all CPUs created on this engine, in creation order.
func (e *Engine) CPUs() []*CPU { return e.cpus }

// CPUReport sums busy time per category across all CPUs and divides by the
// elapsed window, yielding "units of a hyperthread" exactly as the paper's
// Table 4 reports CPU consumption.
func (e *Engine) CPUReport(elapsed Time) Usage {
	var u Usage
	if elapsed <= 0 {
		return u
	}
	for _, c := range e.cpus {
		for cat := Category(0); cat < NumCategories; cat++ {
			u[cat] += float64(c.busy[cat]) / float64(elapsed)
		}
	}
	return u
}
