package core

import (
	"fmt"
	"sort"
	"strings"

	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/sim"
)

// This file is the rxq-to-PMD assignment layer: the analog of OVS's
// rxq_scheduling (pmd-rxq-assign) plus the PMD auto-load-balancer
// (pmd-auto-lb) and the transmit-side XPS txq mapping. The datapath owns
// the rxq→PMD map; callers no longer hand-place queues on threads, they
// ask the layer to place them under a policy, and the auto-balancer may
// move them later. Everything here is driven by virtual-time perf counters
// and stable sort orders — no wall clock, no randomness — so a rebalance
// happens at the same virtual instant with the same outcome on every run.

// AssignPolicy selects how rxqs are distributed across PMD threads.
type AssignPolicy int

// Assignment policies (the pmd-rxq-assign values we implement).
const (
	// AssignRoundRobin hands each newly added rxq to the next PMD in
	// creation order — OVS's "roundrobin". It is the default because it
	// reproduces the historical one-queue-per-PMD wiring exactly.
	AssignRoundRobin AssignPolicy = iota
	// AssignCycles greedily bin-packs rxqs onto PMDs by their measured
	// cycle shares, heaviest first onto the least-loaded thread — OVS's
	// "cycles". Queues with no history count as zero and fall back to a
	// stable (port, queue) order.
	AssignCycles
)

// String names the policy as the pmd-rxq-assign value.
func (p AssignPolicy) String() string {
	if p == AssignCycles {
		return "cycles"
	}
	return "roundrobin"
}

// ParseAssignPolicy parses a pmd-rxq-assign value.
func ParseAssignPolicy(s string) (AssignPolicy, error) {
	switch s {
	case "roundrobin":
		return AssignRoundRobin, nil
	case "cycles":
		return AssignCycles, nil
	default:
		return 0, fmt.Errorf("pmd-rxq-assign: unknown policy %q (have roundrobin, cycles)", s)
	}
}

// rxqState is the assignment layer's record of one assigned receive queue:
// its owner thread and the cycles it has consumed inside the current
// load-balance interval (and in total, for pmd-rxq-show usage shares).
type rxqState struct {
	rxq RxQueue
	pmd *PMD
	// intervalCycles accumulates processing cycles charged on behalf of
	// this queue since the last auto-LB tick (or manual rebalance).
	intervalCycles sim.Time
	// totalCycles accumulates since assignment, for usage reporting.
	totalCycles sim.Time
}

// assigner is the datapath's rxq→PMD map and balancer state.
type assigner struct {
	policy AssignPolicy
	rxqs   map[RxQueue]*rxqState
	// rr is the round-robin rotor over d.pmds.
	rr int

	// Auto load balancer configuration (pmd-auto-lb).
	autoLB          bool
	autoLBInterval  sim.Time
	autoLBThreshold int // minimum variance improvement, percent
	autoLBGen       int // invalidates scheduled ticks on reconfigure

	// Rebalances counts applied re-shardings; RebalanceMoves counts rxqs
	// that changed threads across them. Both feed dpif.Stats and the
	// corescale report, and both stay zero with the balancer off.
	Rebalances     uint64
	RebalanceMoves uint64
	// DryRuns counts auto-LB ticks that estimated but skipped a reshard
	// (improvement under threshold, or nothing to move).
	DryRuns uint64
}

func (d *Datapath) assignerInit() *assigner {
	if d.assign == nil {
		d.assign = &assigner{
			rxqs:            make(map[RxQueue]*rxqState),
			autoLBInterval:  costmodel.AutoLBDefaultInterval,
			autoLBThreshold: costmodel.AutoLBDefaultThresholdPct,
		}
	}
	return d.assign
}

// AssignPolicyInEffect reports the active rxq distribution policy.
func (d *Datapath) AssignPolicyInEffect() AssignPolicy { return d.assignerInit().policy }

// SetAssignPolicy selects the policy applied to future placements and
// rebalances; already-placed queues do not move until a rebalance.
func (d *Datapath) SetAssignPolicy(p AssignPolicy) { d.assignerInit().policy = p }

// AssignRxqTo places (p, q) on a specific PMD, validating that the queue is
// not already assigned — to this thread or any other. This is the explicit
// placement path; policy-driven placement goes through AddRxq /
// DistributeRxqs.
func (d *Datapath) AssignRxqTo(m *PMD, p Port, q int) error {
	if m == nil || m.dp != d {
		return fmt.Errorf("assign: PMD does not belong to this datapath")
	}
	if q < 0 || (p.NumRxQueues() > 0 && q >= p.NumRxQueues()) {
		return fmt.Errorf("assign: port %q has %d rx queues, no queue %d",
			p.Name(), p.NumRxQueues(), q)
	}
	a := d.assignerInit()
	key := RxQueue{Port: p, Queue: q}
	if st, dup := a.rxqs[key]; dup {
		return fmt.Errorf("assign: %s queue %d already assigned to %s",
			p.Name(), q, st.pmd.CPU.Name())
	}
	st := &rxqState{rxq: key, pmd: m}
	a.rxqs[key] = st
	m.rxqs = append(m.rxqs, st)
	return nil
}

// AddRxq places (p, q) on a PMD chosen by the active policy and returns the
// chosen thread.
func (d *Datapath) AddRxq(p Port, q int) (*PMD, error) {
	if len(d.pmds) == 0 {
		return nil, fmt.Errorf("assign: datapath has no PMD threads")
	}
	a := d.assignerInit()
	var m *PMD
	switch a.policy {
	case AssignCycles:
		m = d.leastLoadedPMD()
	default:
		m = d.pmds[a.rr%len(d.pmds)]
		a.rr++
	}
	if err := d.AssignRxqTo(m, p, q); err != nil {
		return nil, err
	}
	return m, nil
}

// DistributeRxqs places every receive queue of a port under the active
// policy (queue order, so round-robin reproduces the historical
// queue-i-to-PMD-i wiring when queues equal threads).
func (d *Datapath) DistributeRxqs(p Port) error {
	for q := 0; q < p.NumRxQueues(); q++ {
		if _, err := d.AddRxq(p, q); err != nil {
			return err
		}
	}
	return nil
}

// UnassignRxq removes (p, q) from its owning thread.
func (d *Datapath) UnassignRxq(p Port, q int) error {
	a := d.assignerInit()
	key := RxQueue{Port: p, Queue: q}
	st, ok := a.rxqs[key]
	if !ok {
		return fmt.Errorf("assign: %s queue %d is not assigned", p.Name(), q)
	}
	st.pmd.dropRxq(st)
	delete(a.rxqs, key)
	return nil
}

// leastLoadedPMD returns the thread with the smallest measured interval
// load under the cycles policy, breaking load ties by assigned-queue count
// (so cold-start placement with no cycle history degenerates to queue-count
// balancing, as OVS's rxq scheduling does) and remaining ties by thread
// creation order.
func (d *Datapath) leastLoadedPMD() *PMD {
	best := d.pmds[0]
	for _, m := range d.pmds[1:] {
		lb, lm := d.pmdIntervalLoad(best), d.pmdIntervalLoad(m)
		if lm < lb || (lm == lb && len(m.rxqs) < len(best.rxqs)) {
			best = m
		}
	}
	return best
}

// pmdIntervalLoad sums the measured per-rxq cycles on a thread for the
// current balance interval.
func (d *Datapath) pmdIntervalLoad(m *PMD) sim.Time {
	var t sim.Time
	for _, st := range m.rxqs {
		t += st.intervalCycles
	}
	return t
}

// dropRxq removes one rxq state from the thread's poll list.
func (m *PMD) dropRxq(st *rxqState) {
	for i, cur := range m.rxqs {
		if cur == st {
			m.rxqs = append(m.rxqs[:i], m.rxqs[i+1:]...)
			return
		}
	}
}

// Rxqs lists the thread's assigned queues in poll order.
func (m *PMD) Rxqs() []RxQueue {
	out := make([]RxQueue, 0, len(m.rxqs))
	for _, st := range m.rxqs {
		out = append(out, st.rxq)
	}
	return out
}

// --- auto load balancer ----------------------------------------------------------

// ConfigureAutoLB enables or disables the deterministic PMD auto-load-
// balancer. While enabled, every interval of virtual time the balancer
// dry-runs a cycles-policy reassignment against the measured per-rxq cycle
// shares and applies it only when the estimated per-PMD load variance
// improves by at least thresholdPct percent. interval <= 0 keeps the
// previous (or default) interval; thresholdPct < 0 keeps the previous
// threshold.
func (d *Datapath) ConfigureAutoLB(on bool, interval sim.Time, thresholdPct int) {
	a := d.assignerInit()
	if interval > 0 {
		a.autoLBInterval = interval
	}
	if thresholdPct >= 0 {
		a.autoLBThreshold = thresholdPct
	}
	if on == a.autoLB {
		return
	}
	a.autoLB = on
	a.autoLBGen++
	if on {
		d.scheduleAutoLB(a.autoLBGen)
	}
}

// AutoLBEnabled reports whether the auto-load-balancer is running.
func (d *Datapath) AutoLBEnabled() bool { return d.assignerInit().autoLB }

// AutoLBSettings reports the balancer's interval and threshold.
func (d *Datapath) AutoLBSettings() (interval sim.Time, thresholdPct int) {
	a := d.assignerInit()
	return a.autoLBInterval, a.autoLBThreshold
}

func (d *Datapath) scheduleAutoLB(gen int) {
	a := d.assign
	d.Eng.Schedule(a.autoLBInterval, func() {
		if !a.autoLB || a.autoLBGen != gen {
			return
		}
		d.autoLBTick()
		d.scheduleAutoLB(gen)
	})
}

// autoLBTick is one balancer pass: measure, dry-run, maybe apply, reset the
// interval meters. Split out so tests can drive it directly.
func (d *Datapath) autoLBTick() {
	a := d.assignerInit()
	defer func() {
		for _, st := range a.rxqs {
			st.intervalCycles = 0
		}
	}()
	moves, improvementPct := d.planRebalance()
	if len(moves) == 0 || improvementPct < float64(a.autoLBThreshold) {
		a.DryRuns++
		return
	}
	for _, mv := range moves {
		mv.st.pmd.dropRxq(mv.st)
		mv.st.pmd = mv.to
		mv.to.rxqs = append(mv.to.rxqs, mv.st)
		a.RebalanceMoves++
	}
	a.Rebalances++
}

// rxqMove is one planned reassignment.
type rxqMove struct {
	st *rxqState
	to *PMD
}

// balancePMDs returns the threads eligible for rebalancing: poll-mode
// threads, in creation order. Interrupt and non-PMD threads keep their
// queues — exactly as OVS only balances across pmd threads.
func (d *Datapath) balancePMDs() []*PMD {
	var out []*PMD
	for _, m := range d.pmds {
		if m.mode == ModePoll {
			out = append(out, m)
		}
	}
	return out
}

// planRebalance dry-runs a cycles-policy reassignment over the eligible
// threads and returns the moves plus the estimated variance improvement in
// percent. The plan is a pure function of the measured interval cycles and
// stable orderings, which is the balancer's determinism argument.
func (d *Datapath) planRebalance() ([]rxqMove, float64) {
	pmds := d.balancePMDs()
	if len(pmds) < 2 {
		return nil, 0
	}
	// Collect the movable queues in a stable order: cycles descending,
	// ties by (port id, queue).
	var sts []*rxqState
	loads := make(map[*PMD]sim.Time, len(pmds))
	for _, m := range pmds {
		for _, st := range m.rxqs {
			sts = append(sts, st)
			loads[m] += st.intervalCycles
		}
	}
	if len(sts) == 0 {
		return nil, 0
	}
	sort.SliceStable(sts, func(i, j int) bool {
		if sts[i].intervalCycles != sts[j].intervalCycles {
			return sts[i].intervalCycles > sts[j].intervalCycles
		}
		if a, b := sts[i].rxq.Port.ID(), sts[j].rxq.Port.ID(); a != b {
			return a < b
		}
		return sts[i].rxq.Queue < sts[j].rxq.Queue
	})
	curVar := loadVariance(pmds, loads)
	if curVar == 0 {
		return nil, 0
	}
	// Greedy bin-pack: heaviest queue onto the least-loaded estimated bin,
	// ties by thread creation order.
	est := make(map[*PMD]sim.Time, len(pmds))
	target := make(map[*rxqState]*PMD, len(sts))
	for _, st := range sts {
		best := pmds[0]
		for _, m := range pmds[1:] {
			if est[m] < est[best] {
				best = m
			}
		}
		est[best] += st.intervalCycles
		target[st] = best
	}
	estVar := loadVariance(pmds, est)
	improvement := 100 * (curVar - estVar) / curVar
	var moves []rxqMove
	for _, st := range sts {
		if to := target[st]; to != st.pmd {
			moves = append(moves, rxqMove{st: st, to: to})
		}
	}
	return moves, improvement
}

// loadVariance is the population variance of per-PMD loads.
func loadVariance(pmds []*PMD, loads map[*PMD]sim.Time) float64 {
	mean := 0.0
	for _, m := range pmds {
		mean += float64(loads[m])
	}
	mean /= float64(len(pmds))
	v := 0.0
	for _, m := range pmds {
		dlt := float64(loads[m]) - mean
		v += dlt * dlt
	}
	return v / float64(len(pmds))
}

// Rebalances reports applied re-shardings (auto or manual).
func (d *Datapath) RebalanceStats() (rebalances, moves, dryRuns uint64) {
	a := d.assignerInit()
	return a.Rebalances, a.RebalanceMoves, a.DryRuns
}

// --- transmit-side XPS -----------------------------------------------------------

// TxqFor maps a thread to the tx queue it uses on a port: thread id modulo
// the port's tx queue count (OVS's static txq assignment). With at least as
// many tx queues as threads every thread owns its queue outright; with
// fewer, queues are shared and each send pays the configured lock cost. A
// port reporting no txq limit (function-delivery ports) keeps the thread id
// as-is.
func (d *Datapath) TxqFor(m *PMD, p Port) int {
	n := p.NumTxQueues()
	if n <= 0 {
		return m.ID
	}
	return m.ID % n
}

// txqContended reports whether the thread's tx queue on p is shared with
// another thread — the XPS case OVS guards with a per-txq lock. Ports with
// no txq limit are never contended.
func (d *Datapath) txqContended(p Port) bool {
	n := p.NumTxQueues()
	return n > 0 && len(d.pmds) > n
}

// chargeTxLock counts one packet sent on a contended txq. The spinlock
// itself is paid once per flush batch (the O3 analog, charged in
// PMD.iterate), so only bookkeeping happens here.
func (d *Datapath) chargeTxLock(m *PMD, out Port) {
	if d.txqContended(out) {
		m.Perf.TxContended++
	}
}

// --- pmd-rxq-show ----------------------------------------------------------------

// PmdRxqShow renders the `ovs-appctl dpif-netdev/pmd-rxq-show` analog: one
// block per thread with its assigned queues and each queue's share of the
// thread's measured rxq cycles, plus the balancer counters when it has run.
func (d *Datapath) PmdRxqShow() string {
	a := d.assignerInit()
	var b strings.Builder
	fmt.Fprintf(&b, "rxq assignment policy: %s  auto-lb: %v\n", a.policy, a.autoLB)
	if a.Rebalances > 0 || a.DryRuns > 0 {
		fmt.Fprintf(&b, "auto-lb: rebalances:%d moved-rxqs:%d dry-runs:%d\n",
			a.Rebalances, a.RebalanceMoves, a.DryRuns)
	}
	for _, m := range d.pmds {
		fmt.Fprintf(&b, "pmd thread %s:\n", m.CPU.Name())
		fmt.Fprintf(&b, "  isolated : false\n")
		var total sim.Time
		for _, st := range m.rxqs {
			total += st.totalCycles
		}
		sorted := append([]*rxqState(nil), m.rxqs...)
		sort.SliceStable(sorted, func(i, j int) bool {
			if a, b := sorted[i].rxq.Port.ID(), sorted[j].rxq.Port.ID(); a != b {
				return a < b
			}
			return sorted[i].rxq.Queue < sorted[j].rxq.Queue
		})
		for _, st := range sorted {
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(st.totalCycles) / float64(total)
			}
			fmt.Fprintf(&b, "  port: %-12s queue-id: %2d (enabled)   pmd usage: %3.0f %%\n",
				st.rxq.Port.Name(), st.rxq.Queue, pct)
		}
		if len(m.rxqs) == 0 {
			fmt.Fprintf(&b, "  (no rx queues assigned)\n")
		}
	}
	if len(d.pmds) == 0 {
		fmt.Fprintf(&b, "no PMD threads\n")
	}
	return b.String()
}
