package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ovsbench runs the command in-process and returns its exit code and output.
func ovsbench(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestProfilesSurviveTheExperimentPath: an os.Exit on the experiment path
// would skip the deferred profile writers, leaving the CPU profile empty and
// the heap profile uncreated.
func TestProfilesSurviveTheExperimentPath(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "c.prof"), filepath.Join(dir, "m.prof")
	code, _, stderr := ovsbench("-quick", "-cpuprofile", cpu, "-memprofile", mem, "table1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}

// TestMisspeltPointIsAnError: a point the scenario does not define must fail
// with the valid names, not measure nothing and exit 0.
func TestMisspeltPointIsAnError(t *testing.T) {
	out := filepath.Join(t.TempDir(), "churn.json")
	code, _, stderr := ovsbench("-quick", "-scenario", "churnscale", "-points", "10K", "-out", out)
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, `no point "10K"`) || !strings.Contains(stderr, "have: 10k") {
		t.Errorf("error does not name the bad point and the valid ones: %q", stderr)
	}
	if _, err := os.Stat(out); err == nil {
		t.Error("a result file was written for a rejected selection")
	}
}

// TestSweepFlagsNeedASweep: -points and -out are errors on a scenario with
// no sweep and no JSON result, and without -scenario at all.
func TestSweepFlagsNeedASweep(t *testing.T) {
	for _, args := range [][]string{
		{"-quick", "-scenario", "restart", "-points", "10k"},
		{"-quick", "-scenario", "restart", "-out", filepath.Join(t.TempDir(), "r.json")},
		{"-quick", "-points", "10k", "table1"},
	} {
		code, stdout, stderr := ovsbench(args...)
		if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "ovsbench: ") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and only an error",
				args, code, stdout, stderr)
		}
	}
}

// TestSweepWritesSelectedPoints runs the cheapest sweep end to end through
// the generic -points/-out path.
func TestSweepWritesSelectedPoints(t *testing.T) {
	out := filepath.Join(t.TempDir(), "offload.json")
	code, stdout, stderr := ovsbench("-quick", "-scenario", "offload", "-points", "baseline", "-out", out)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "note: wrote "+out) {
		t.Errorf("report does not record the write:\n%s", stdout)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"schema": "ovsxdp-offload/v1"`, `"profile": "quick"`, `"name": "baseline"`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("result lacks %s:\n%s", want, data)
		}
	}
	if bytes.Contains(data, []byte(`"name": "fit"`)) {
		t.Error("unselected point ran")
	}
}
