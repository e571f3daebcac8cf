// Command benchmark is the one measuring stick for the switch simulator: five
// fixed workloads, two clocks, end-to-end and per-layer numbers, correctness
// ledgers, and a comparison tool. See README.md in this directory.
//
//	go run ./benchmark -workload all -seed 1 -out result.json
//	go run ./benchmark -workload churn -trace 1
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark -check-determinism -workload ct
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Uint64("seed", 1, "seed of the benchmark's generators (flow identities and arrival jitter)")
		seconds = flag.Int("seconds", runSeconds, "length of the timed phase; fixed, so only this value is accepted")
		trace   = flag.Int("trace", 0, "1 records spans on alternate windows and replays each layer")
		out     = flag.String("out", "", "write every result as JSON to this file")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 on any worse")
		determ  = flag.Bool("check-determinism", false, "run the workload twice at -seed and once at seed+1")
		smoke   = flag.Bool("smoke", false, "two short windows per workload, traced: a quick end-to-end check")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("-compare needs two result files")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *seconds != runSeconds:
		// The driver passes BENCHMARK.json's run_seconds; any other length
		// would be a different virtual experiment under the same names.
		fatal("-seconds is fixed at %d (BENCHMARK.json's run_seconds); use -smoke for a quick run", runSeconds)
	case *trace != 0 && *trace != 1:
		fatal("-trace must be 0 or 1")
	}

	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*name); ok {
		selected = []workload{w}
	} else {
		fatal("unknown workload %q", *name)
	}
	sc := fullScale
	traced := *trace == 1
	if *smoke {
		sc, traced = smokeScale, true
	}
	if *determ {
		os.Exit(checkDeterminism(selected, sc, *seed))
	}

	var results []*result
	ok := true
	for _, w := range selected {
		res, tf := runWorkload(w, sc, *seed, traced)
		printResult(os.Stdout, res)
		if tf != nil {
			path := fmt.Sprintf(".bench_build/trace-%s.json", w.name)
			if err := writeTrace(path, *tf); err != nil {
				fatal("write trace: %v", err)
			}
			fmt.Printf("spans and replay written to %s\n", path)
		}
		ok = ok && res.Correct
		results = append(results, res)
	}
	if *out != "" {
		if err := writeResults(*out, results); err != nil {
			fatal("write %s: %v", *out, err)
		}
	}
	if len(results) == 1 {
		// The driver's contract: the last line is one JSON object with the
		// end-to-end metrics (untraced) or the per-layer ones (traced).
		fmt.Println(driverLine(results[0], traced))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// driverLine renders the result line the benchmark driver parses. Its
// end-to-end set is the host-clock metrics; the virtual-clock end-to-end
// metrics travel with the per-layer set (see driverEndToEnd).
func driverLine(res *result, traced bool) string {
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for _, d := range endToEnd {
		if driverEndToEnd(d) != traced {
			line.Metrics[d.name] = metric{Value: res.EndToEnd[d.name].Value, Unit: d.unit}
		}
	}
	if traced {
		for name, m := range res.PerLayer {
			line.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal("encode result: %v", err)
	}
	return string(data)
}

// printResult prints every metric by name with its unit, then the ledgers.
func printResult(f io.Writer, res *result) {
	fmt.Fprintf(f, "== %s  seed=%d windows=%d traced=%v\n", res.Workload, res.Seed, res.Windows, res.Traced)
	show := func(title string, group map[string]metric, decls []decl) {
		fmt.Fprintf(f, "%s\n", title)
		for _, d := range decls {
			m, ok := group[d.name]
			if !ok {
				continue
			}
			clock := "virtual/exact"
			if d.wall {
				clock = "host"
			}
			fmt.Fprintf(f, "  %-30s %14.6f %-7s %s, %s is better", d.name, m.Value, m.Unit, clock, d.better)
			if m.N > 0 {
				fmt.Fprintf(f, "; median of %d windows, q1 %.4f q3 %.4f", m.N, m.Q1, m.Q3)
			}
			fmt.Fprintln(f)
		}
	}
	show("end-to-end", res.EndToEnd, endToEnd)
	fmt.Fprintf(f, "  %-30s %14.6f %-7s exact, lower is better; %d failed of %d attempted\n", "fail_ratio",
		float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio", res.Failed, res.Attempted)
	fmt.Fprintf(f, "  latency samples %d, %d beyond the 99th percentile\n", res.LatSamples, res.LatAboveP99)
	show("per-layer", res.PerLayer, perLayer)
	fmt.Fprintln(f, "ledgers")
	for _, l := range res.Ledgers {
		fmt.Fprintf(f, "  %s\n", l)
	}
	fmt.Fprintf(f, "correct=%v\n", res.Correct)
}

// resultFile is the -out layout.
type resultFile struct {
	Schema  string    `json:"schema"`
	Results []*result `json:"results"`
}

const resultSchema = "ovsxdp-benchmark/v1"

func writeResults(path string, results []*result) error {
	data, err := json.MarshalIndent(resultFile{Schema: resultSchema, Results: results}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (map[string]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	byName := map[string]*result{}
	for _, r := range f.Results {
		byName[r.Workload] = r
	}
	return byName, nil
}

// checkDeterminism runs each workload twice at seed, requiring every exact
// metric to be bit-identical, and once at seed+1 to show the workload is not
// tuned to one seed (it must still be correct).
func checkDeterminism(selected []workload, sc scale, seed uint64) int {
	status := 0
	for _, w := range selected {
		a, _ := runWorkload(w, sc, seed, false)
		b, _ := runWorkload(w, sc, seed, false)
		other, _ := runWorkload(w, sc, seed+1, false)
		diffs := exactDiffs(a, b)
		sort.Strings(diffs)
		for _, d := range diffs {
			fmt.Printf("%s: NOT DETERMINISTIC: %s\n", w.name, d)
		}
		fmt.Printf("%s: seed %d twice: %d exact metrics differ; correct=%v,%v; seed %d: correct=%v, virt_ns_per_pkt %.4f vs %.4f\n",
			w.name, seed, len(diffs), a.Correct, b.Correct, seed+1, other.Correct,
			other.EndToEnd["virt_ns_per_pkt"].Value, a.EndToEnd["virt_ns_per_pkt"].Value)
		if len(diffs) > 0 || !a.Correct || !b.Correct || !other.Correct {
			status = 1
		}
	}
	return status
}
