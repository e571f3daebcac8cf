package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected into a buffer. The CLI
// renders through fmt.Print*, so this is the full user-visible output.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		done <- data
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("subcommand failed: %v", ferr)
	}
	return out
}

// TestGoldenOutputs pins the CLI's byte-exact rendering across the api view
// layer: every subcommand output below was captured before the typed-DTO
// refactor and must never drift. The three fault-demo outputs were captured
// while each datapath still carried its own copy of the bounded upcall
// queue, so they pin the shared slow path (internal/upcall) to what both
// copies did, and still pin it now that the handler's service interval and
// retry base are constants. rxq-netdev.txt was captured while pmd-rxq-show
// was still a method of every provider. The simulation is virtual-time, so
// these bytes are deterministic on every machine.
func TestGoldenOutputs(t *testing.T) {
	base := func() cliConfig { return cliConfig{} }
	smc := cliConfig{"smc-enable": "true"}

	cases := []struct {
		golden string
		dpType string
		cfg    cliConfig
		run    func(string, cliConfig) error
	}{
		{"dpctl-netdev.txt", "netdev", base(), dpctlStats},
		{"dpctl-netlink.txt", "netlink", base(), dpctlStats},
		{"dpctl-ebpf.txt", "ebpf", base(), dpctlStats},
		{"dpctl-smc.txt", "netdev", smc, dpctlStats},
		{"perf-netdev.txt", "netdev", base(), pmdPerfShow},
		{"perf-netlink.txt", "netlink", base(), pmdPerfShow},
		{"perf-ebpf.txt", "ebpf", base(), pmdPerfShow},
		{"rxq-netdev.txt", "netdev", base(), pmdRxqShow},
		{"fault-demo-netdev.txt", "netdev", base(), faultDemo},
		{"fault-demo-netlink.txt", "netlink", base(), faultDemo},
		{"fault-demo-ebpf.txt", "ebpf", base(), faultDemo},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			got := captureStdout(t, func() error { return c.run(c.dpType, c.cfg) })
			if !bytes.Equal(got, want) {
				t.Fatalf("output drifted from golden %s:\n--- got ---\n%s\n--- want ---\n%s", c.golden, got, want)
			}
		})
	}
}

// TestPmdRxqShowNeedsPMDs: pmd-rxq-show is a userspace-datapath command; the
// kernel providers have no PMD threads and refuse it by name.
func TestPmdRxqShowNeedsPMDs(t *testing.T) {
	for _, typ := range []string{"netlink", "ebpf"} {
		err := pmdRxqShow(typ, cliConfig{})
		if want := "pmd-rxq-show: datapath " + typ + " has no PMD threads"; err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", typ, err, want)
		}
	}
}
