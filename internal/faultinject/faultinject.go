// Package faultinject is the deterministic fault injector behind the
// robustness exhibits: faults are scheduled in *virtual time* on the
// simulation engine, so arming a fault window never perturbs packet timing
// — two runs with the same seed and the same schedule are byte-identical,
// faults included. The injector itself is pure bookkeeping: a substrate
// either polls a gate the injector hands out (the slow path's upcall
// handler) or has a window's edges drive it (the NIC flow table's clamp).
//
// Two kinds are injected: a slow-path outage (the vswitchd handler thread
// wedged or restarting), which is transient and retried with exponential
// backoff, and firmware rule-memory pressure on the NIC's offload table.
package faultinject

import (
	"fmt"
	"sort"
	"strings"

	"ovsxdp/internal/sim"
)

// Kind names one injectable fault class.
type Kind int

// Fault kinds.
const (
	// KindUpcallFailure makes slow-path translation fail transiently (the
	// vswitchd handler thread is wedged or restarting).
	KindUpcallFailure Kind = iota
	// KindOffloadTablePressure clamps the NIC hardware flow table's
	// effective capacity for the window, force-evicting offloaded rules —
	// firmware rule-memory pressure (shared with other offload consumers),
	// injectable on schedule. Traffic falls back to the software path.
	KindOffloadTablePressure
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindUpcallFailure:
		return "upcall-failure"
	case KindOffloadTablePressure:
		return "offload-table-pressure"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// FaultError is the typed error an injected fault surfaces. A transient
// fault is retried by the upcall machinery.
type FaultError struct {
	Kind   Kind
	Target string
}

// Error implements error.
func (e *FaultError) Error() string {
	return fmt.Sprintf("faultinject: %s on %s", e.Kind, e.Target)
}

// Transient reports whether retrying can succeed once the fault window
// closes; the datapaths' retry-with-backoff paths key off this.
func (e *FaultError) Transient() bool {
	return e.Kind == KindUpcallFailure
}

// Injector schedules fault windows in virtual time and hands out gate
// closures the substrates poll. All state changes happen inside engine
// events, so determinism follows from the engine's.
type Injector struct {
	eng    *sim.Engine
	active map[string]bool
	// gated holds the key of every gate handed out: the faults that
	// something polls.
	gated   map[string]bool
	trips   [numKinds]uint64
	windows [numKinds]uint64
}

// New builds an injector on the engine.
func New(eng *sim.Engine) *Injector {
	return &Injector{eng: eng, active: make(map[string]bool), gated: make(map[string]bool)}
}

func faultKey(k Kind, target string) string { return k.String() + "|" + target }

// Window arms one fault of kind k on target for [at, at+dur) in virtual
// time. onSet, when non-nil, runs at both edges with the new active state
// (used to drive side effects like nicsim link carrier).
func (in *Injector) Window(k Kind, target string, at, dur sim.Time, onSet func(active bool)) {
	in.windows[k]++
	key := faultKey(k, target)
	in.eng.ScheduleAt(at, func() {
		in.active[key] = true
		if onSet != nil {
			onSet(true)
		}
	})
	in.eng.ScheduleAt(at+dur, func() {
		delete(in.active, key)
		if onSet != nil {
			onSet(false)
		}
	})
}

// Gate returns the poll closure a substrate hook plugs in: it reports
// whether the fault is currently active, counting each positive poll as
// one trip.
func (in *Injector) Gate(k Kind, target string) func() bool {
	key := faultKey(k, target)
	in.gated[key] = true
	return func() bool {
		if in.active[key] {
			in.trips[k]++
			return true
		}
		return false
	}
}

// Gates lists the faults a gate was handed out for, as "kind|target",
// sorted: a window on any other pair is felt only through its onSet.
func (in *Injector) Gates() []string {
	keys := make([]string, 0, len(in.gated))
	for k := range in.gated {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Active reports whether the fault is inside an armed window right now.
func (in *Injector) Active(k Kind, target string) bool {
	return in.active[faultKey(k, target)]
}

// Err returns the typed error for a fault on target.
func (in *Injector) Err(k Kind, target string) error {
	return &FaultError{Kind: k, Target: target}
}

// Trips returns how many times gates of kind k fired.
func (in *Injector) Trips(k Kind) uint64 { return in.trips[k] }

// Windows returns how many windows of kind k were armed.
func (in *Injector) Windows(k Kind) uint64 { return in.windows[k] }

// Report renders the per-fault counters, deterministically ordered.
func (in *Injector) Report() string {
	var b strings.Builder
	for k := Kind(0); k < numKinds; k++ {
		if in.windows[k] == 0 && in.trips[k] == 0 {
			continue
		}
		fmt.Fprintf(&b, "fault %-18s windows:%d trips:%d\n", k, in.windows[k], in.trips[k])
	}
	if b.Len() == 0 {
		return "no faults injected\n"
	}
	return b.String()
}

// maxBackoffShift caps the exponential term so pathological attempt counts
// cannot overflow sim.Time.
const maxBackoffShift = 20

// Backoff returns the retry delay for the given attempt (1-based):
// exponential in the attempt with jitter of up to half the deterministic
// term, drawn from the seeded sim RNG — a virtual-time timer, so a seeded
// run retries identically every time.
func Backoff(r *sim.Rand, base sim.Time, attempt int) sim.Time {
	if base <= 0 {
		base = sim.Microsecond
	}
	if attempt < 1 {
		attempt = 1
	}
	if attempt > maxBackoffShift {
		attempt = maxBackoffShift
	}
	d := base << uint(attempt)
	return d + sim.Time(r.Intn(int(d/2)+1))
}
