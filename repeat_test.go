//go:build reach

package ovsxdp

// The repeated-code gate, beside the reachability check and behind the same
// build tag: a run of six non-trivial lines that appears twice in non-test Go
// is one piece of logic written twice, and the copies drift apart. Blank
// lines, comments, import lines and lines made only of brackets are not
// counted; every other line is compared with its indentation trimmed.
// benchmark/ is scanned too: its copies count, although it is frozen.
//
//	go test -tags reach -run TestRepeatedWindows .
//
// The committed repeats are repeatAllowed, a ratchet like reachLooseAllowed:
// the test fails on a repeat outside the list and on an entry that no longer
// repeats, so the list only shrinks.

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// repeatWindow is the number of consecutive non-trivial lines compared.
const repeatWindow = 6

// repeatLines reads a Go file's counted lines, indentation trimmed.
func repeatLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	inImport, inComment := false, false
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		s := strings.TrimSpace(sc.Text())
		switch {
		case inComment:
			inComment = !strings.Contains(s, "*/")
		case strings.HasPrefix(s, "/*"):
			inComment = !strings.Contains(s, "*/")
		case inImport:
			inImport = s != ")"
		case s == "import (":
			inImport = true
		case s == "" || strings.HasPrefix(s, "//") || strings.HasPrefix(s, "import "):
		case strings.Trim(s, "{}()[],;") == "":
		default:
			out = append(out, s)
		}
	}
	return out, sc.Err()
}

// repeatedWindows lists each window of repeatWindow counted lines that occurs
// at more than one place in the non-test Go files under the working
// directory, as "file ↔ file: first line", files sorted (a file repeating
// itself appears twice). Hidden directories and testdata are skipped.
func repeatedWindows(t *testing.T) []string {
	places := map[string][]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name[0] == '.' || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		lines, err := repeatLines(path)
		if err != nil {
			return err
		}
		for i := 0; i+repeatWindow <= len(lines); i++ {
			key := strings.Join(lines[i:i+repeatWindow], "\n")
			places[key] = append(places[key], filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for key, files := range places {
		if len(files) < 2 {
			continue
		}
		sort.Strings(files)
		first, _, _ := strings.Cut(key, "\n")
		out = append(out, strings.Join(files, " ↔ ")+": "+first)
	}
	sort.Strings(out)
	return slices.Compact(out)
}

func TestRepeatedWindows(t *testing.T) {
	allowed := map[string]bool{}
	for _, a := range repeatAllowed {
		allowed[a] = true
	}
	for _, w := range repeatedWindows(t) {
		if !allowed[w] {
			t.Errorf("%s: %d lines written twice and not in repeatAllowed: write them once", w, repeatWindow)
		}
		delete(allowed, w)
	}
	for a := range allowed {
		t.Errorf("repeatAllowed lists %q, which no longer repeats: drop the entry", a)
	}
}

// repeatAllowed: the repeats the tree holds today, sorted, as
// repeatedWindows prints them. Remove one by writing its code once, then drop
// its entry; never add one.
var repeatAllowed = []string{
	// The redirect-to-XSK tail of the veth-redirect and load-balancer programs.
	"internal/xdp/programs.go ↔ internal/xdp/programs.go: I(ebpf.Exit()).",
	"internal/xdp/programs.go ↔ internal/xdp/programs.go: Label(\"toxsk\").",
}
