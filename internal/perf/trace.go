package perf

import (
	"fmt"
	"strings"

	"ovsxdp/internal/sim"
)

// Result is the caching layer that resolved a traced packet, the levels of
// the paper's Figure 9 cost analysis.
type Result int

// Resolution levels.
const (
	ResultNone Result = iota // not resolved (still in flight / dropped early)
	ResultOffload
	ResultEMC
	ResultSMC
	ResultMegaflow
	ResultUpcall
	ResultDrop
)

// String names the level.
func (r Result) String() string {
	switch r {
	case ResultOffload:
		return "offload"
	case ResultEMC:
		return "emc"
	case ResultSMC:
		return "smc"
	case ResultMegaflow:
		return "megaflow"
	case ResultUpcall:
		return "upcall"
	case ResultDrop:
		return "drop"
	default:
		return "-"
	}
}

// TraceRecord is one packet lifecycle through the fast path, in virtual
// time: where it entered, which caching level resolved it, where it left,
// and the busy span its processing occupied on the thread's CPU.
type TraceRecord struct {
	// Seq is the global arrival order on this thread (monotonic).
	Seq uint64
	// InPort / OutPort are datapath port numbers; OutPort 0 means the
	// packet was not output (dropped or consumed).
	InPort  uint32
	OutPort uint32
	// Result is the first caching level that resolved the packet.
	Result Result
	// Recircs counts recirculations (conntrack, tunnel pop).
	Recircs int
	// Start / End bracket the processing span in virtual time.
	Start, End sim.Time
}

// Tracer is a fixed-size ring of the most recent packet lifecycles: record
// seq lives in buf[seq%len(buf)], so a full ring overwrites its oldest slot.
type Tracer struct {
	buf  []TraceRecord
	seen uint64
}

// NewTracer returns a tracer keeping the last n records (n >= 1).
func NewTracer(n int) *Tracer {
	if n < 1 {
		n = 1
	}
	return &Tracer{buf: make([]TraceRecord, n)}
}

// Add records one lifecycle, overwriting the oldest when full, and stamps
// the record's sequence number.
func (t *Tracer) Add(r TraceRecord) {
	r.Seq = t.seen
	t.buf[t.seen%uint64(len(t.buf))] = r
	t.seen++
}

// Seen returns how many lifecycles were ever recorded.
func (t *Tracer) Seen() uint64 { return t.seen }

// Records returns the retained lifecycles, oldest first.
func (t *Tracer) Records() []TraceRecord {
	n := min(t.seen, uint64(len(t.buf)))
	out := make([]TraceRecord, 0, n)
	for seq := t.seen - n; seq < t.seen; seq++ {
		out = append(out, t.buf[seq%uint64(len(t.buf))])
	}
	return out
}

// FormatTrace renders the `pmd-perf-trace` listing: per thread, one line
// per retained packet lifecycle.
func FormatTrace(threads []ThreadStats) string {
	var b strings.Builder
	for _, t := range threads {
		recs := t.Trace()
		if t.Tracer() == nil {
			continue
		}
		fmt.Fprintf(&b, "%s: %d traced (showing last %d)\n",
			t.Name, t.Tracer().Seen(), len(recs))
		for _, r := range recs {
			fmt.Fprintf(&b, "  #%-4d in:%-3d out:%-3d via:%-8s recirc:%d  %s -> %s (%.2fus)\n",
				r.Seq, r.InPort, r.OutPort, r.Result, r.Recircs,
				r.Start, r.End, (r.End - r.Start).Micros())
		}
	}
	if b.Len() == 0 {
		return "tracing not enabled\n"
	}
	return b.String()
}
