package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"

	"ovsxdp/internal/sim"
)

// nearestRank is the reference quantile the histogram must reproduce.
func nearestRank(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func TestHistogramBuckets(t *testing.T) {
	// Buckets tile the value range: each bucket's upper edge maps back to
	// it and the next value starts the next bucket.
	for i := 0; i < nBuckets-1; i++ {
		hi := bucketHigh(i)
		if got := bucketOf(hi); got != i {
			t.Fatalf("bucketOf(bucketHigh(%d)=%d) = %d", i, hi, got)
		}
		if got := bucketOf(hi + 1); got != i+1 {
			t.Fatalf("bucketOf(%d) = %d, want %d", hi+1, got, i+1)
		}
		lo := int64(0)
		if i > 0 {
			lo = bucketHigh(i-1) + 1
		}
		if width := hi - lo + 1; float64(width) > float64(lo)/subSize+1 {
			t.Fatalf("bucket %d [%d,%d] wider than 1/%d of its value", i, lo, hi, subSize)
		}
	}
	if got := bucketOf(1 << 50); got != nBuckets-1 {
		t.Fatalf("overflow value landed in bucket %d, want the last", got)
	}
}

func TestHistogramQuantilesExact(t *testing.T) {
	rnd := sim.NewRand(7)
	var small, large []int64
	for i := 0; i < 50_000; i++ {
		small = append(small, int64(rnd.Intn(2*subSize)))
		large = append(large, int64(rnd.Intn(40_000_000)))
	}
	check := func(vals []int64, exact bool) {
		h := newHistogram()
		for _, v := range vals {
			h.record(v)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			want, got := nearestRank(vals, q), h.quantile(q)
			if exact && got != want {
				t.Fatalf("q%.3f = %d, want exactly %d", q, got, want)
			}
			// Above the exact range the answer is the sample's bucket edge.
			if got < want || float64(got-want) > float64(want)/subSize {
				t.Fatalf("q%.3f = %d, want %d within one bucket", q, got, want)
			}
		}
		if got, want := h.above(0.99), uint64(len(vals))-uint64(math.Ceil(0.99*float64(len(vals)))); got != want {
			t.Fatalf("above(0.99) = %d, want %d", got, want)
		}
	}
	check(small, true)
	check(large, false)
	if q := newHistogram().quantile(0.5); q != 0 {
		t.Fatalf("empty histogram median = %d, want 0", q)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for these inputs.
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7}, 1, 10},
		{[]float64{2.5, 3.5}, 2.25, 3.75},
		{[]float64{1, 2, 4, 8, 16, 32, 64}, 2, 32},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclaredNames checks that BENCHMARK.json and the metric and workload
// tables in this package declare exactly the same names, units, directions
// and bounds.
func TestDeclaredNames(t *testing.T) {
	b := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	type row struct {
		unit, better string
		bound        float64
	}
	wantE2E, wantLayer := map[string]row{}, map[string]row{}
	for _, d := range endToEnd {
		if driverEndToEnd(d) {
			wantE2E[d.name] = row{d.unit, d.better, d.bound}
		} else {
			wantLayer[d.name] = row{d.unit, d.better, 0}
		}
	}
	for _, d := range perLayer {
		if _, dup := wantLayer[d.name]; dup {
			t.Errorf("metric %s declared twice", d.name)
		}
		wantLayer[d.name] = row{d.unit, d.better, 0}
	}
	for name, r := range wantLayer {
		if !nameRE.MatchString(name) || !unitRE.MatchString(r.unit) {
			t.Errorf("metric %q unit %q outside the allowed alphabet", name, r.unit)
		}
	}

	gotE2E := map[string]row{}
	for _, m := range b.EndToEnd {
		gotE2E[m.Name] = row{m.Unit, m.Better, m.Bound}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	gotLayer := map[string]row{}
	for _, m := range b.PerLayer {
		gotLayer[m.Name] = row{m.Unit, m.Better, 0}
	}
	compare := func(kind string, want, got map[string]row) {
		for name, w := range want {
			if g, ok := got[name]; !ok {
				t.Errorf("%s %s: declared in Go, missing from BENCHMARK.json", kind, name)
			} else if g != w {
				t.Errorf("%s %s: BENCHMARK.json has %+v, Go has %+v", kind, name, g, w)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s %s: in BENCHMARK.json, not declared in Go", kind, name)
			}
		}
	}
	compare("end_to_end", wantE2E, gotE2E)
	compare("per_layer", wantLayer, gotLayer)
	if _, ok := gotE2E["setup_s"]; !ok {
		t.Error("end_to_end lacks setup_s")
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, Go %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, Go %q", i, b.Workloads[i].Name, w.name)
		}
		if b.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %q: why differs from BENCHMARK.json or is longer than 200", w.name)
		}
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, Go has %d", b.RunSeconds, runSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
}

// TestSmoke runs every workload at the smoke scale, traced, and requires
// every declared metric to appear, no failed packet, every ledger exact, and
// driver lines that carry exactly the declared sets.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range workloads {
		res, tf := runWorkload(w, smokeScale, 1, true)
		if !res.Correct || res.Failed != 0 || len(res.Violations) > 0 {
			t.Errorf("%s: correct=%v failed=%d violations=%v", w.name, res.Correct, res.Failed, res.Violations)
		}
		if res.Attempted == 0 || res.LatSamples == 0 {
			t.Errorf("%s: attempted %d, latency samples %d", w.name, res.Attempted, res.LatSamples)
		}
		for _, d := range endToEnd {
			m, ok := res.EndToEnd[d.name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: end-to-end %s missing or not finite (%v)", w.name, d.name, m.Value)
			}
			if driverEndToEnd(d) && m.Value <= 0 {
				t.Errorf("%s: %s = %v, must be positive", w.name, d.name, m.Value)
			}
		}
		for _, d := range perLayer {
			if m, ok := res.PerLayer[d.name]; !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: per-layer %s missing or not finite (%v)", w.name, d.name, m.Value)
			}
		}
		if tf == nil || len(tf.Windows) != smokeScale.windows/2 || len(tf.ReplayNs) == 0 {
			t.Errorf("%s: trace file incomplete: %+v", w.name, tf)
		}

		for traced, want := range map[bool]int{false: len(b.EndToEnd), true: len(b.PerLayer)} {
			var line struct {
				Correct   bool
				Attempted uint64
				Metrics   map[string]metric
			}
			if err := json.Unmarshal([]byte(driverLine(res, traced)), &line); err != nil {
				t.Fatal(err)
			}
			if len(line.Metrics) != want || !line.Correct || line.Attempted == 0 {
				t.Errorf("%s: driver line traced=%v has %d metrics, want %d", w.name, traced, len(line.Metrics), want)
			}
		}
	}
}

// TestSameSeedIsExact reruns one workload at one seed and requires every
// virtual metric and exact counter to repeat bit for bit, and another seed
// to change the inputs while staying correct.
func TestSameSeedIsExact(t *testing.T) {
	w, _ := findWorkload("churn")
	a, _ := runWorkload(w, smokeScale, 1, false)
	b, _ := runWorkload(w, smokeScale, 1, false)
	if diffs := exactDiffs(a, b); len(diffs) > 0 {
		t.Errorf("same seed differs: %v", diffs)
	}
	c, _ := runWorkload(w, smokeScale, 2, false)
	if !c.Correct {
		t.Errorf("seed 2 incorrect: %v", c.Violations)
	}
	if len(exactDiffs(a, c)) == 0 {
		t.Error("seed 2 reproduced seed 1 exactly: the seed does not reach the generator")
	}
}

func TestJudge(t *testing.T) {
	wall := decl{better: higher, bound: 0.10, wall: true}
	virt := decl{better: lower}
	cases := []struct {
		d    decl
		a, b metric
		want string
	}{
		{wall, metric{Value: 2}, metric{Value: 1.9}, verdictSame},
		{wall, metric{Value: 2}, metric{Value: 1.7}, verdictWorse},
		{wall, metric{Value: 2}, metric{Value: 2.3}, verdictBetter},
		{wall, metric{Value: 2, Q1: 1.7, Q3: 2.2, N: 24}, metric{Value: 1.7}, verdictUnresolved},
		{virt, metric{Value: 100}, metric{Value: 100}, verdictSame},
		{virt, metric{Value: 100}, metric{Value: 100.001}, verdictWorse},
		{virt, metric{Value: 100}, metric{Value: 99.999}, verdictBetter},
	}
	for i, c := range cases {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("case %d: judge = %s, want %s", i, got, c.want)
		}
	}
}

// TestCompareRefusesAndFlags checks the gate's edges: a result compares clean
// with itself, a candidate that lost a workload is worse, and results of
// different seeds are not compared at all.
func TestCompareRefusesAndFlags(t *testing.T) {
	mk := func(seed uint64) *result {
		return &result{Workload: "ct", Seed: seed, Windows: 2, Correct: true, Attempted: 10,
			EndToEnd: map[string]metric{"virt_ns_per_pkt": {Value: 438}, "sim_mpps_wall": {Value: 1}},
			PerLayer: map[string]metric{}}
	}
	base := map[string]*result{"ct": mk(1)}
	if got := compareResults(io.Discard, base, map[string]*result{"ct": mk(1)}); got != 0 {
		t.Errorf("identical results: status %d, want 0", got)
	}
	if got := compareResults(io.Discard, base, map[string]*result{}); got != 1 {
		t.Errorf("candidate without the workload: status %d, want 1", got)
	}
	lost := mk(1)
	delete(lost.EndToEnd, "sim_mpps_wall")
	if got := compareResults(io.Discard, base, map[string]*result{"ct": lost}); got != 1 {
		t.Errorf("candidate without a metric: status %d, want 1", got)
	}
	if got := compareResults(io.Discard, base, map[string]*result{"ct": mk(2)}); got != 2 {
		t.Errorf("different seeds: status %d, want 2", got)
	}
}

// TestWarmupBoundaryFrame runs a seed whose generator ticks at the very
// instant the warm-up ends. RunUntil is inclusive, so that frame is offered
// before the timed phase starts and must be counted on neither side of the
// failed = attempted - delivered subtraction.
func TestWarmupBoundaryFrame(t *testing.T) {
	w, _ := findWorkload("p2p_fast")
	res, _ := runWorkload(w, smokeScale, 127, false)
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct=%v failed=%d violations=%v", res.Correct, res.Failed, res.Violations)
	}
}
