package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of one workload x metric comparison.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// spread is the distance between a wall metric's own quartiles as a share of
// its median; zero when the metric was sampled once.
func (m metric) spread() float64 {
	if m.N < 2 || m.Value == 0 {
		return 0
	}
	return math.Abs(m.Q3-m.Q1) / math.Abs(m.Value)
}

// judge compares candidate b with baseline a under d's rule. Virtual-clock
// metrics are deterministic, so any difference is a verdict. Host metrics may
// move by d.bound of the baseline, and are unresolved when either side's own
// spread is wider than that bound.
func judge(d decl, a, b metric) string {
	if a.Value == b.Value {
		return verdictSame
	}
	bound := 0.0
	if d.wall {
		bound = d.bound
		if a.spread() > bound || b.spread() > bound {
			return verdictUnresolved
		}
	}
	worsening := (b.Value - a.Value) / math.Abs(a.Value)
	if d.better == higher {
		worsening = -worsening
	}
	switch {
	case worsening > bound:
		return verdictWorse
	case worsening < -bound:
		return verdictBetter
	default:
		return verdictSame
	}
}

// exactDiffs lists the exact quantities (virtual end-to-end metrics, exact
// per-layer counters, the failure counts) on which two results differ.
func exactDiffs(a, b *result) []string {
	var diffs []string
	note := func(name string, x, y float64) {
		if x != y {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", name, x, y))
		}
	}
	note("attempted", float64(a.Attempted), float64(b.Attempted))
	note("failed", float64(a.Failed), float64(b.Failed))
	note("lat_samples", float64(a.LatSamples), float64(b.LatSamples))
	for _, d := range endToEnd {
		if !d.wall {
			note(d.name, a.EndToEnd[d.name].Value, b.EndToEnd[d.name].Value)
		}
	}
	for _, d := range perLayer {
		if !d.wall {
			note(d.name, a.PerLayer[d.name].Value, b.PerLayer[d.name].Value)
		}
	}
	return diffs
}

// compareFiles prints one row per workload x end-to-end metric of candidate
// file pathB against baseline pathA and returns the exit status: 1 if any
// row is worse, 2 if the files cannot be compared.
func compareFiles(pathA, pathB string) int {
	base, errA := readResults(pathA)
	cand, errB := readResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	return compareResults(os.Stdout, base, cand)
}

func compareResults(f io.Writer, base, cand map[string]*result) int {
	// Virtual metrics are exact only within one virtual experiment, so two
	// results of a workload compare only at the same seed and run shape.
	for _, w := range workloads {
		a, b := base[w.name], cand[w.name]
		if a != nil && b != nil && (a.Seed != b.Seed || a.Windows != b.Windows || a.Traced != b.Traced) {
			fmt.Fprintf(f, "%s: seed %d windows %d traced %v against seed %d windows %d traced %v: not the same experiment\n",
				w.name, a.Seed, a.Windows, a.Traced, b.Seed, b.Windows, b.Traced)
			return 2
		}
	}
	status := 0
	fmt.Fprintf(f, "%-11s %-20s %14s %14s %9s  %s\n", "workload", "metric", "baseline", "candidate", "change", "verdict")
	for _, w := range workloads {
		a, b := base[w.name], cand[w.name]
		row := func(name string, x, y float64, verdict string) {
			change := 0.0
			if x != 0 {
				change = 100 * (y - x) / math.Abs(x)
			}
			fmt.Fprintf(f, "%-11s %-20s %14.6f %14.6f %+8.2f%%  %s\n", w.name, name, x, y, change, verdict)
			if verdict == verdictWorse {
				status = 1
			}
		}
		switch {
		case a == nil && b == nil:
			continue
		case a == nil:
			fmt.Fprintf(f, "%-11s not in the baseline: nothing to compare\n", w.name)
			continue
		case b == nil:
			// A candidate that lost a workload must not compare clean.
			row("present", 1, 0, verdictWorse)
			continue
		}
		for _, d := range endToEnd {
			ma, okA := a.EndToEnd[d.name]
			mb, okB := b.EndToEnd[d.name]
			switch {
			case okA && okB:
				row(d.name, ma.Value, mb.Value, judge(d, ma, mb))
			case okA != okB:
				row(d.name, ma.Value, mb.Value, verdictWorse)
			}
		}
		fa := float64(a.Failed) / float64(max(a.Attempted, 1))
		fb := float64(b.Failed) / float64(max(b.Attempted, 1))
		row("fail_ratio", fa, fb, judge(decl{better: lower}, metric{Value: fa}, metric{Value: fb}))
		if !b.Correct {
			row("correct", 1, 0, verdictWorse)
		}
		diffs := exactDiffs(a, b)
		sort.Strings(diffs)
		fmt.Fprintf(f, "%-11s exact counters and virtual metrics differing: %d\n", w.name, len(diffs))
		for _, d := range diffs {
			fmt.Fprintf(f, "%-11s   %s\n", w.name, d)
		}
	}
	return status
}
