package ovsxdp

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// BENCH_workloads.json is the committed trajectory of the benchmark's
// end-to-end metrics: for each change that measured itself, ten or more
// interleaved runs of `benchmark -workload all` on the parent commit and on
// the change, one seed per pair, reduced to median and quartiles per
// workload and metric. The runs are host time and memory on a noisy host,
// so the file records the host (Go version, CPU count) beside them.
const benchWorkloadsFile = "BENCH_workloads.json"

type benchWorkloads struct {
	Schema  string        `json:"schema"`
	Changes []benchChange `json:"changes"`
}

type benchChange struct {
	Title string `json:"title"`
	// ParentSHA is the commit measured as the parent. The change is the
	// commit that adds this entry; its internal/ tree (git rev-parse
	// <commit>:internal) is ChangeInternalTree.
	ParentSHA          string     `json:"parent_sha"`
	ChangeInternalTree string     `json:"change_internal_tree"`
	Go                 string     `json:"go"`
	Nproc              int        `json:"nproc"`
	Command            string     `json:"command"`
	Seeds              []uint64   `json:"seeds"` // pair i ran seed i; odd pairs ran the change first
	Rows               []benchRow `json:"rows"`
}

type benchRow struct {
	Workload string `json:"workload"`
	Metric   string `json:"metric"`
	Unit     string `json:"unit"`
	// Parent and Change hold one run per seed, in seed order.
	Parent      []float64  `json:"parent"`
	Change      []float64  `json:"change"`
	ParentStats benchStats `json:"parent_stats"`
	ChangeStats benchStats `json:"change_stats"`
	// ChangeBetter counts the pairs the change won, ties for neither.
	ChangeBetter int `json:"change_better_pairs"`
}

type benchStats struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// benchSpec is what BENCHMARK.json declares: workload names, and each
// end-to-end metric's unit and direction.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// benchReduce gives the median and quartiles the benchmark itself prints:
// the quartiles of Python's statistics.quantiles(xs, n=4), exclusive method.
func benchReduce(xs []float64) benchStats {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return benchStats{}
	}
	cut := func(i int) float64 {
		if n == 1 {
			return s[0]
		}
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return benchStats{Median: med, Q1: cut(1), Q3: cut(3)}
}

// benchBetterPairs counts the pairs in which the change beat the parent.
func benchBetterPairs(parent, change []float64, higherIsBetter bool) int {
	n := 0
	for i := range parent {
		if d := change[i] - parent[i]; d > 0 && higherIsBetter || d < 0 && !higherIsBetter {
			n++
		}
	}
	return n
}

// TestBenchWorkloadsFile: the committed trajectory parses, names only
// workloads and end-to-end metrics BENCHMARK.json declares (with their
// units), holds ten or more pairs per row, and its medians, quartiles and
// win counts are those of its own runs, with q1 <= median <= q3.
func TestBenchWorkloadsFile(t *testing.T) {
	var spec benchSpec
	readJSON(t, "BENCHMARK.json", &spec)
	workloads := map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}
	units, higher := map[string]string{}, map[string]bool{}
	for _, m := range spec.EndToEnd {
		units[m.Name], higher[m.Name] = m.Unit, m.Better == "higher"
	}
	var f benchWorkloads
	readJSON(t, benchWorkloadsFile, &f)
	if f.Schema != "ovsxdp-bench-workloads/v1" || len(f.Changes) == 0 {
		t.Fatalf("schema %q with %d changes", f.Schema, len(f.Changes))
	}
	for _, c := range f.Changes {
		if len(c.ParentSHA) != 40 || len(c.ChangeInternalTree) != 40 || c.Go == "" || c.Nproc < 1 {
			t.Errorf("%s: parent %q, change tree %q, go %q, nproc %d", c.Title, c.ParentSHA, c.ChangeInternalTree, c.Go, c.Nproc)
		}
		if len(c.Seeds) < 10 || len(c.Rows) == 0 {
			t.Errorf("%s: %d pairs and %d rows, want at least ten pairs", c.Title, len(c.Seeds), len(c.Rows))
		}
		for _, r := range c.Rows {
			at := fmt.Sprintf("%s: %s %s", c.Title, r.Workload, r.Metric)
			unit, ok := units[r.Metric]
			if !workloads[r.Workload] || !ok || r.Unit != unit {
				t.Errorf("%s (%s): not a workload and end-to-end metric of BENCHMARK.json", at, r.Unit)
				continue
			}
			if len(r.Parent) != len(c.Seeds) || len(r.Change) != len(c.Seeds) {
				t.Errorf("%s: %d parent and %d change runs for %d seeds", at, len(r.Parent), len(r.Change), len(c.Seeds))
				continue
			}
			for side, st := range map[string]benchStats{"parent": r.ParentStats, "change": r.ChangeStats} {
				if !(st.Q1 <= st.Median && st.Median <= st.Q3) {
					t.Errorf("%s: %s q1 %g, median %g, q3 %g out of order", at, side, st.Q1, st.Median, st.Q3)
				}
			}
			if !benchStatsEqual(r.ParentStats, benchReduce(r.Parent)) || !benchStatsEqual(r.ChangeStats, benchReduce(r.Change)) {
				t.Errorf("%s: stored stats %+v / %+v, the runs give %+v / %+v", at,
					r.ParentStats, r.ChangeStats, benchReduce(r.Parent), benchReduce(r.Change))
			}
			if n := benchBetterPairs(r.Parent, r.Change, higher[r.Metric]); n != r.ChangeBetter {
				t.Errorf("%s: %d pairs won stored, the runs give %d", at, r.ChangeBetter, n)
			}
		}
	}
}

func benchStatsEqual(a, b benchStats) bool {
	eq := func(x, y float64) bool { return math.Abs(x-y) <= 1e-9*max(1, math.Abs(y)) }
	return eq(a.Median, b.Median) && eq(a.Q1, b.Q1) && eq(a.Q3, b.Q3)
}

// TestBenchWorkloadsAppend reduces a directory of paired benchmark runs and
// appends them to BENCH_workloads.json as one change. It runs only when
// BENCH_PAIRS names the directory, which holds meta.json (title,
// parent_sha, change_internal_tree, command, seeds) and, per seed s, the
// `benchmark -out` files parent-s.json and change-s.json:
//
//	BENCH_PAIRS=/tmp/pairs go test -run TestBenchWorkloadsAppend .
func TestBenchWorkloadsAppend(t *testing.T) {
	dir := os.Getenv("BENCH_PAIRS")
	if dir == "" {
		t.Skip("BENCH_PAIRS names no directory of paired runs")
	}
	var spec benchSpec
	readJSON(t, "BENCHMARK.json", &spec)
	var c benchChange
	readJSON(t, filepath.Join(dir, "meta.json"), &c)
	c.Go, c.Nproc = runtime.Version(), runtime.NumCPU()
	type runFile struct {
		Results []struct {
			Workload string                             `json:"workload"`
			EndToEnd map[string]struct{ Value float64 } `json:"end_to_end"`
		} `json:"results"`
	}
	values := map[string][]float64{} // side/workload/metric -> one value per seed
	for _, seed := range c.Seeds {
		for _, side := range []string{"parent", "change"} {
			var rf runFile
			readJSON(t, filepath.Join(dir, fmt.Sprintf("%s-%d.json", side, seed)), &rf)
			for _, res := range rf.Results {
				for _, m := range spec.EndToEnd {
					v, ok := res.EndToEnd[m.Name]
					if !ok {
						t.Fatalf("%s-%d.json: %s has no %s", side, seed, res.Workload, m.Name)
					}
					k := side + "/" + res.Workload + "/" + m.Name
					values[k] = append(values[k], v.Value)
				}
			}
		}
	}
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			p, ch := values["parent/"+w.Name+"/"+m.Name], values["change/"+w.Name+"/"+m.Name]
			if len(p) != len(c.Seeds) || len(ch) != len(c.Seeds) {
				t.Fatalf("%s %s: %d parent and %d change runs for %d seeds", w.Name, m.Name, len(p), len(ch), len(c.Seeds))
			}
			c.Rows = append(c.Rows, benchRow{Workload: w.Name, Metric: m.Name, Unit: m.Unit,
				Parent: p, Change: ch, ParentStats: benchReduce(p), ChangeStats: benchReduce(ch),
				ChangeBetter: benchBetterPairs(p, ch, m.Better == "higher")})
		}
	}
	f := benchWorkloads{Schema: "ovsxdp-bench-workloads/v1"}
	if _, err := os.Stat(benchWorkloadsFile); err == nil {
		readJSON(t, benchWorkloadsFile, &f)
	}
	f.Changes = append(f.Changes, c)
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(benchWorkloadsFile, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
