// Command ovsbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ovsbench list                 # show available experiments
//	ovsbench all                  # run everything (full profile)
//	ovsbench fig9a table2 ...     # run selected experiments
//	ovsbench -quick fig8a         # CI-sized windows
//	ovsbench -scenario offload    # run a scenario; sweeps write BENCH_<scenario>.json
//
// Each experiment prints measured values next to the paper's anchors with
// the measured/paper ratio, matching the per-experiment index in DESIGN.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ovsxdp/internal/api"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit code instead of calling
// os.Exit so the deferred profile writers always run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ovsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "use shortened measurement windows")
	perfStages := fs.Bool("perf", false, "add per-stage cycle attribution rows (fig9, table4)")
	scenario := fs.String("scenario", "", "run a robustness scenario instead of an experiment (e.g. restart, cachesweep)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	out := fs.String("out", "", "where a sweep scenario writes its JSON result (default BENCH_<scenario>.json)")
	points := fs.String("points", "", "comma-separated sweep points to run (default: all)")
	other := map[string]string{}
	fs.Func("o", "other_config key=value applied to every bed (repeatable, e.g. -o pmd-rxq-assign=cycles)", func(s string) error {
		k, v, err := api.ParseConfigArg(s)
		if err != nil {
			return err
		}
		other[k] = v
		return nil
	})
	fs.Usage = func() { usage(fs, stderr) }
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "ovsbench:", err)
		return code
	}
	if *scenario == "" && (*points != "" || *out != "") {
		return fail(2, errors.New("-points and -out apply to -scenario sweeps only"))
	}

	if err := dpif.CheckConfig(other); err != nil {
		return fail(1, err)
	}
	if len(other) > 0 {
		experiments.DefaultOther = other
	}

	profile := experiments.Full
	if *quick {
		profile = experiments.Quick
	}
	profile.PerfStages = *perfStages

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(1, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(1, err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fail(1, err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fail(1, err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(1, err)
			}
			if err := f.Close(); err != nil {
				fail(1, err)
			}
		}()
	}

	if *scenario != "" {
		s, ok := experiments.GetScenario(*scenario)
		if !ok {
			fmt.Fprintf(stderr, "ovsbench: unknown scenario %q; have:\n", *scenario)
			for _, s := range experiments.Scenarios() {
				fmt.Fprintf(stderr, "  %-8s %s\n", s.ID, s.Title)
			}
			return 1
		}
		var sel []string
		if *points != "" {
			for _, p := range strings.Split(*points, ",") {
				sel = append(sel, strings.TrimSpace(p))
			}
		}
		if err := s.CheckPoints(profile, sel); err != nil {
			return fail(2, err)
		}
		if s.Points == nil && *out != "" {
			return fail(2, fmt.Errorf("scenario %s has no JSON result to write", s.ID))
		}
		start := time.Now()
		rep, result := s.Run(profile, sel)
		if result != nil {
			path := *out
			if path == "" {
				path = "BENCH_" + s.ID + ".json"
			}
			if err := writeJSON(path, result); err != nil {
				rep.AddNote("failed to write %s: %v", path, err)
			} else {
				rep.AddNote("wrote %s", path)
			}
		}
		fmt.Fprint(stdout, rep)
		fmt.Fprintf(stdout, "  (%s in %.1fs)\n", s.ID, time.Since(start).Seconds())
		return 0
	}

	ids := fs.Args()
	if len(ids) == 0 {
		fs.Usage()
		return 2
	}

	if ids[0] == "list" {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "  %-8s %s\n", e.ID, e.Title)
		}
		for _, s := range experiments.Scenarios() {
			fmt.Fprintf(stdout, "  %-8s %s (scenario; run with -scenario %s)\n", s.ID, s.Title, s.ID)
		}
		return 0
	}

	if ids[0] == "all" {
		ids = nil
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	}

	exit := 0
	for _, id := range ids {
		e, ok := experiments.Get(id)
		if !ok {
			fmt.Fprintf(stderr, "ovsbench: unknown experiment %q (try 'ovsbench list')\n", id)
			exit = 1
			continue
		}
		start := time.Now()
		rep := e.Run(profile)
		fmt.Fprint(stdout, rep)
		fmt.Fprintf(stdout, "  (%s in %.1fs)\n\n", id, time.Since(start).Seconds())
	}
	return exit
}

// writeJSON persists a scenario's typed result, indented, with a trailing
// newline — the committed BENCH_*.json format.
func writeJSON(path string, result any) error {
	data, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func usage(fs *flag.FlagSet, w io.Writer) {
	fmt.Fprintf(w, `ovsbench — regenerate the paper's evaluation

usage:
  ovsbench [-quick] [-perf] [-o key=value]... list | all | <experiment>...
  ovsbench [-quick] [-o key=value]... -scenario <scenario> [-points a,b] [-out f]
  (both forms take -cpuprofile f and -memprofile f)

experiments: fig1 fig2 fig8a fig8b fig8c fig9a fig9b fig9c fig10 fig11 fig12
             table1 table2 table3 table4 table5
scenarios:   restart cachesweep corescale soak
sweeps:      churnscale connscale offload (write BENCH_<scenario>.json; -points selects, -out redirects)
`)
	fs.PrintDefaults()
}
