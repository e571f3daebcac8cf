package dpif

import (
	"slices"

	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/sim"
)

// WheelRevalidator ages out idle megaflows with per-flow idle deadlines
// instead of periodic full-table sweeps: every installed flow queues an
// idle deadline (one sim.Deadlines FIFO, whose head alone sits in the
// engine's timer wheel), a deadline that fires finds
// the flow either active (hits advanced — the deadline is re-armed one
// idle timeout out, the mintmr-style lazy re-arm that keeps the packet
// path free of timer work) or idle (the flow is evicted). Work per
// interval is therefore proportional to the flows whose deadlines elapse —
// under churn, the expiring ones — never to the table size, which is what
// makes a million-flow table with active expiry affordable.
//
// Flow discovery is event-driven through the Dpif flow hook, so a flow is
// tracked from the instant the datapath installs it, whichever path
// installed it (upcall, FlowPut, negative flow). Flows that vanish by
// other means (Revalidate, FlowFlush, negative-flow TTL) are recognized
// dead at their next deadline and dropped from tracking. Everything goes
// through the Dpif seam (SetFlowHook/FlowDump/FlowDel), so the
// kernel-module and eBPF datapaths age out idle flows with exactly the
// same policy as the userspace one.
//
// Each check charges costmodel.RevalFlowCheck (and evictions
// RevalFlowEvict) to the dedicated revalidator CPU, so experiments can
// report a revalidator duty cycle alongside the PMD's.
type WheelRevalidator struct {
	dp  Dpif
	eng *sim.Engine
	// CPU is the revalidator thread's CPU; its busy share over a window is
	// the revalidator duty cycle.
	CPU *sim.CPU
	// idleTimeout is how long a flow may go without a hit before
	// eviction. With lazy re-arming the eviction lands between one and two
	// timeouts after the last hit, exactly like OVS's max-idle against a
	// coarse dump interval. It stays constant: every deadline is now plus
	// idleTimeout, which is what lets them queue in one FIFO.
	idleTimeout sim.Time
	deadlines   *sim.Deadlines[flowRec]
	running     bool
	// tables lists the classifiers the flow hook has reported, one per
	// PMD thread (or the one kernel table), in the order first seen: a
	// deadline names its flow's table by index here, not by pointer.
	tables []*dpcls.Classifier

	// Stats.
	// Installs counts flows registered for tracking (every datapath
	// install plus flows present when the revalidator started).
	Installs uint64
	// Checks counts deadline firings that inspected a live flow.
	Checks uint64
	// Rearms counts checks that found the flow active and re-armed it.
	Rearms uint64
	// Evicted counts idle flows removed from the datapath.
	Evicted uint64
}

// flowRec is one tracked flow's deadline state, queued by value: 16
// bytes, so a ring slot is 32 and holds no pointer the collector would
// scan. Only the low 32 bits of the hit count are kept, compared for
// equality: an active flow reads as idle only if a multiple of 2^32 hits
// landed in one idle timeout, and fewer than 2^32 fit in one (in a
// one-second timeout that would take 4.3 Gpps on one megaflow).
type flowRec struct {
	ref      dpcls.Ref
	table    uint32
	lastHits uint32
}

// StartWheelRevalidator launches incremental flow expiry over the datapath:
// existing flows are registered immediately, future ones as the datapath
// installs them.
func StartWheelRevalidator(eng *sim.Engine, dp Dpif, idleTimeout sim.Time) *WheelRevalidator {
	r := &WheelRevalidator{
		dp:          dp,
		eng:         eng,
		CPU:         eng.NewCPU("revalidator"),
		idleTimeout: idleTimeout,
		running:     true,
	}
	r.deadlines = sim.NewDeadlines(eng, r.onExpire)
	dp.SetFlowHook(r.register)
	for _, f := range dp.FlowDump() {
		r.register(f)
	}
	return r
}

// Stop detaches the revalidator: the flow hook is cleared and every
// outstanding deadline, as it fires, leaves the queue without touching the
// datapath.
func (r *WheelRevalidator) Stop() {
	if !r.running {
		return
	}
	r.running = false
	r.dp.SetFlowHook(nil)
}

// register starts tracking one installed flow: record its current hit
// count and arm its idle deadline.
func (r *WheelRevalidator) register(f Flow) {
	r.Installs++
	i := slices.Index(r.tables, f.Table)
	if i < 0 {
		i, r.tables = len(r.tables), append(r.tables, f.Table)
	}
	r.deadlines.Push(r.eng.Now()+r.idleTimeout, flowRec{f.Ref, uint32(i), uint32(f.Entry().Hits)})
}

// onExpire is the deadline handler: drop dead flows from tracking, re-arm
// active ones, evict idle ones.
func (r *WheelRevalidator) onExpire(rec flowRec) {
	if !r.running {
		return
	}
	f := Flow{Table: r.tables[rec.table], Ref: rec.ref}
	e := f.Entry()
	if e == nil {
		// Removed by other means (Revalidate, FlowFlush, negative-flow
		// TTL, another revalidator): nothing to do but stop tracking it.
		return
	}
	r.Checks++
	r.CPU.Consume(sim.User, costmodel.RevalFlowCheck)
	if hits := uint32(e.Hits); hits != rec.lastHits {
		rec.lastHits = hits
		r.Rearms++
		r.deadlines.Push(r.eng.Now()+r.idleTimeout, rec)
		return
	}
	r.CPU.Consume(sim.User, costmodel.RevalFlowEvict)
	if r.dp.FlowDel(f) {
		r.Evicted++
	}
}

// Revalidate brings the installed megaflows up to date with a rule change.
// A megaflow, negative flows included, whose masked key now translates
// under a mask within its own takes the new actions in place (ref, hits and
// mask kept, so the caches above it follow and the flow hook does not
// fire); any other is deleted.
func Revalidate(dp Dpif, translate UpcallFunc) {
	for _, f := range dp.FlowDump() {
		key, old := f.Table.MaskedKey(f.Ref), f.Table.Mask(f.Ref)
		if mf, err := translate(key); err == nil && mf.Mask.Union(old) == old {
			f.Table.InsertKey(&key, &old, mf.Actions)
		} else {
			dp.FlowDel(f)
		}
	}
}
