package experiments

import (
	"os"
	"strings"
	"testing"
)

// goldenBlock returns one exhibit's rendered report from the committed
// `ovsbench all` output: everything from its "== id:" header up to the
// wall-clock "(id in N.Ns)" line.
func goldenBlock(t *testing.T, golden, id string) string {
	t.Helper()
	start := strings.Index(golden, "== "+id+": ")
	if start < 0 {
		t.Fatalf("golden output has no %s block", id)
	}
	end := strings.Index(golden[start:], "  ("+id+" in ")
	if end < 0 {
		t.Fatalf("golden %s block has no timing line", id)
	}
	return golden[start : start+end]
}

// The bulk-TCP and request/response exhibits are cheap enough (about 2 s
// together at the full profile) to hold against the golden in tier-1, so a
// bed whose virtual numbers move fails `go test ./...`, not only the
// 95-second CI step that diffs `ovsbench all`.
func TestFastExhibitsMatchGolden(t *testing.T) {
	raw, err := os.ReadFile("../../ovsbench_full_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig8a", "fig8b", "fig8c", "fig10", "fig11"} {
		e, ok := Get(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		if got, want := e.Run(Full).String(), goldenBlock(t, string(raw), id); got != want {
			t.Errorf("%s moved from ovsbench_full_output.txt:\n--- got\n%s--- want\n%s", id, got, want)
		}
	}
}
