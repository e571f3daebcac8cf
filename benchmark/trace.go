package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Spans are recorded only from this package, around the calls into the
// system: the engine's RunUntil (root, one per window), the generator
// building a frame, the frame entering the system (NIC.Receive or
// Dpif.Execute), and the sink. They are aggregated per name per window as
// count/total/max, kept in memory, and written out when the run ends.

type spanName int

const (
	spanRunUntil spanName = iota
	spanGenEmit
	spanIngress
	spanSink
	numSpans
)

var spanNames = [numSpans]string{"run_until", "gen_emit", "ingress", "sink"}

// sampleEvery is the span sampling period: timing every call would put
// three clock reads on a path that takes about half a microsecond. Each call
// site keeps its own counter so sites that alternate cannot alias.
const sampleEvery = 8

type spanAgg struct {
	Count   uint64 `json:"count"`
	TotalNs int64  `json:"total_ns"`
	MaxNs   int64  `json:"max_ns"`
}

type tracer struct {
	on      bool
	cur     [numSpans]spanAgg
	windows []traceWindow
}

type traceWindow struct {
	Window int                `json:"window"`
	Spans  map[string]spanAgg `json:"spans"`
}

var epoch = time.Now()

// nanotime reads the host's monotonic clock.
func nanotime() int64 { return int64(time.Since(epoch)) }

// sample reports whether the caller should time this call, advancing the
// call site's own counter n. A nil tracer (tracing off) never samples.
func (t *tracer) sample(n *uint32) bool {
	if t == nil || !t.on {
		return false
	}
	*n++
	return *n%sampleEvery == 0
}

func (t *tracer) add(s spanName, d int64) {
	a := &t.cur[s]
	a.Count++
	a.TotalNs += d
	if d > a.MaxNs {
		a.MaxNs = d
	}
}

// endWindow files the current aggregates under window i and clears them.
func (t *tracer) endWindow(i int) {
	w := traceWindow{Window: i, Spans: map[string]spanAgg{}}
	for s, a := range t.cur {
		w.Spans[spanNames[s]] = a
	}
	t.windows = append(t.windows, w)
	t.cur = [numSpans]spanAgg{}
}

// totals sums one span over every traced window, scaling sampled spans back
// up to the population they were drawn from.
func (t *tracer) totals() (total [numSpans]float64) {
	for _, w := range t.windows {
		for s := range total {
			ns := float64(w.Spans[spanNames[s]].TotalNs)
			if spanName(s) != spanRunUntil {
				ns *= sampleEvery
			}
			total[s] += ns
		}
	}
	return total
}

// traceFile is the layout of the JSON written at exit.
type traceFile struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	SampleEvery int                `json:"sample_every"`
	Windows     []traceWindow      `json:"windows"`
	ReplayNs    map[string]float64 `json:"replay_ns_per_op"`
}

func writeTrace(path string, f traceFile) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// spanMetrics turns the traced windows' span totals into shares of the root
// span, and compares traced with untraced windows for the tracing overhead.
func spanMetrics(res *result, tr *tracer, in *instance, plain, spanned float64) {
	t := tr.totals()
	root := t[spanRunUntil]
	ingress := t[spanIngress]
	if in.bed == nil {
		// Execute delivers to the sink before it returns: the sink span
		// nests inside the ingress span.
		ingress -= t[spanSink]
	}
	res.layer("span.gen_emit_share", t[spanGenEmit]/root)
	res.layer("span.ingress_share", ingress/root)
	res.layer("span.sink_share", t[spanSink]/root)
	res.layer("span.engine_self_share", (root-t[spanGenEmit]-ingress-t[spanSink])/root)
	res.layer("trace.overhead_pct", 100*(1-spanned/plain))
}
