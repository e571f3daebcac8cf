package ovs

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet/hdr"
)

// parseBoth runs spec through the table-driven parser and the reference and
// fails unless they agree on accept-or-reject and on the rule accepted.
func parseBoth(t *testing.T, spec string) bool {
	t.Helper()
	want, wantErr := refParseFlow(spec)
	got, gotErr := ParseFlow(spec)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%q:\n reference error %v\n table error     %v", spec, wantErr, gotErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\n reference %+v\n table     %+v", spec, want, got)
	}
	return gotErr == nil
}

// stringLiterals returns every string literal of a Go source file.
func stringLiterals(t *testing.T, file string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				out = append(out, s)
			}
		}
		return true
	})
	return out
}

// TestParseFlowMatchesReference is the text half of the PR 23 differential:
// every flow spec the package's tests name (every string literal of
// flowparse_test.go and ovs_test.go, the error cases included), a generated
// spec per row of flow.MatchFields and per keyword, random conjunctions with
// repeats, and single-character damage to all of them parse to the same rule
// or fail together.
func TestParseFlowMatchesReference(t *testing.T) {
	var literal, accepted int
	for _, file := range []string{"flowparse_test.go", "ovs_test.go"} {
		for _, s := range stringLiterals(t, file) {
			literal++
			if parseBoth(t, s) {
				accepted++
			}
		}
	}
	if accepted == 0 || accepted == literal {
		t.Fatalf("%d of %d test literals parse: the scan is not finding the specs and the error cases", accepted, literal)
	}

	rng := rand.New(rand.NewSource(23))
	var named []*flow.MatchField
	for i := range flow.MatchFields {
		if r := &flow.MatchFields[i]; r.Name != "" {
			named = append(named, r)
		}
	}
	// tokenFor writes name=value for row r: the row's syntax under a mask
	// of its kind, or a bare number.
	tokenFor := func(r *flow.MatchField) string {
		if rng.Intn(8) == 0 {
			// A number of any magnitude: in range or not for the row.
			return r.Name + "=" + strconv.FormatUint(rng.Uint64()>>rng.Intn(64), 10)
		}
		v, m := rng.Uint64()&r.Ones(), r.Ones()
		switch r.Mask {
		case flow.MaskPrefix:
			m = r.Ones() &^ (r.Ones() >> rng.Intn(33))
		case flow.MaskBits:
			m = rng.Uint64() & 0x3f
		}
		return r.Name + "=" + r.Format(v, m)
	}
	randomToken := func() string {
		if rng.Intn(6) == 0 {
			return flow.MatchKeywords[rng.Intn(len(flow.MatchKeywords))].Name
		}
		return tokenFor(named[rng.Intn(len(named))])
	}
	var perRow, perRowOK, conj, conjOK, damaged, damagedOK int
	for _, r := range named {
		for n := 0; n < 50; n++ {
			if parseBoth(t, tokenFor(r)+",actions=drop") {
				perRowOK++
			}
			perRow++
		}
	}
	for _, k := range flow.MatchKeywords {
		if !parseBoth(t, k.Name+",actions=drop") {
			t.Fatalf("keyword %q does not parse", k.Name)
		}
	}
	for n := 0; n < 2000; n++ {
		toks := []string{fmt.Sprintf("table=%d", rng.Intn(256)), fmt.Sprintf("cookie=0x%x", rng.Uint64())}
		for i := rng.Intn(8); i >= 0; i-- {
			toks = append(toks, randomToken())
		}
		spec := strings.Join(toks, ",") + ",actions=output:1"
		if parseBoth(t, spec) {
			conjOK++
		}
		conj++
		if n%10 != 0 {
			continue
		}
		for at := 0; at < len(spec)-len(",actions=output:1"); at++ {
			for _, c := range []string{"", "/", "+", "x", "9", ":", "="} {
				damaged++
				if parseBoth(t, spec[:at]+c+spec[at+1:]) {
					damagedOK++
				}
			}
		}
	}
	if perRowOK < perRow/2 || conjOK < conj/8 {
		t.Fatalf("%d of %d per-row specs and %d of %d conjunctions parse: the generator is not writing the syntax", perRowOK, perRow, conjOK, conj)
	}
	t.Logf("%d test-file literals (%d parse), %d per-row specs (%d parse), %d keywords, %d conjunctions (%d parse), %d damaged specs (%d parse): 0 disagreements",
		literal, accepted, perRow, perRowOK, len(flow.MatchKeywords), conj, conjOK, damaged, damagedOK)
}

// TestParseFlowDocListsEveryName: the indented lines of ParseFlow's doc
// comment above "Actions" list exactly the keywords of flow.MatchKeywords
// and the named rows of flow.MatchFields.
func TestParseFlowDocListsEveryName(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "flowparse.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var doc string
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "ParseFlow" {
			doc = fd.Doc.Text()
		}
	}
	doc, _, ok := strings.Cut(doc, "Actions (")
	if !ok {
		t.Fatal("ParseFlow's doc comment has no Actions section")
	}
	var gotFields, gotWords []string
	for _, line := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(line, "\t") {
			continue
		}
		for _, tok := range strings.Fields(line) {
			if name, _, isField := strings.Cut(tok, "="); isField {
				gotFields = append(gotFields, name)
			} else {
				gotWords = append(gotWords, tok)
			}
		}
	}
	var wantFields, wantWords []string
	for i := range flow.MatchFields {
		if name := flow.MatchFields[i].Name; name != "" {
			wantFields = append(wantFields, name)
		}
	}
	for _, k := range flow.MatchKeywords {
		wantWords = append(wantWords, k.Name)
	}
	for _, s := range [][]string{gotFields, wantFields, gotWords, wantWords} {
		sort.Strings(s)
	}
	if !reflect.DeepEqual(gotFields, wantFields) {
		t.Errorf("doc comment lists fields\n %v\nthe table has\n %v", gotFields, wantFields)
	}
	if !reflect.DeepEqual(gotWords, wantWords) {
		t.Errorf("doc comment lists keywords %v, the table has %v", gotWords, wantWords)
	}
}

// TestRuleStringParsesBack: Rule.String prints the real cookie and the match
// field by field, and ParseFlow reads table, priority, cookie and match back
// — for a rule that matches on every named row, with a /16 prefix and a
// partial ct_state among the masks.
func TestRuleStringParsesBack(t *testing.T) {
	spec := flow.MatchSpec{Value: flow.Fields{
		InPort: 7, EthDst: hdr.MAC{2, 0, 0, 0, 0, 1}, EthSrc: hdr.MAC{2, 0, 0, 0, 0, 2},
		EthType: hdr.EtherTypeIPv4, VLANTCI: flow.VLANPresent | 100, IPProto: hdr.IPProtoUDP,
		IP4Src: hdr.MakeIP4(10, 1, 0, 0), IP4Dst: hdr.MakeIP4(10, 2, 3, 4), IPTTL: 64,
		TPSrc: 5353, TPDst: 6081, TunVNI: 5001,
		TunSrc: hdr.MakeIP4(172, 16, 0, 1), TunDst: hdr.MakeIP4(172, 16, 0, 2),
		CtState: 0x05, CtZone: 9, CtMark: 0xbeef,
	}}
	for i := range flow.MatchFields {
		r := &flow.MatchFields[i]
		if r.Name != "" {
			r.Set(&spec.Mask, r.Ones())
		}
	}
	spec.Mask.IP4Src = 0xffff0000 // /16
	spec.Mask.CtState = 0x07      // +trk-new+est
	rule := &ofproto.Rule{TableID: 7, Priority: 300, Cookie: 0xfeedface,
		Match:   ofproto.NewMatch(spec.Value, spec.PackMask()),
		Actions: []ofproto.Action{ofproto.CT(5, true, 9), ofproto.Output(2)}}

	text := rule.String()
	for i := range flow.MatchFields {
		if name := flow.MatchFields[i].Name; name != "" && !strings.Contains(text, ","+name+"=") {
			t.Errorf("%q does not state %s", text, name)
		}
	}
	for _, want := range []string{"cookie=0xfeedface", "nw_src=10.1.0.0/16", "nw_dst=10.2.3.4,", "ct_state=+trk-new+est,"} {
		if !strings.Contains(text, want) {
			t.Errorf("%q does not contain %q", text, want)
		}
	}
	back, err := ParseFlow(text)
	if err != nil {
		t.Fatalf("ParseFlow(%q): %v", text, err)
	}
	if back.TableID != rule.TableID || back.Priority != rule.Priority || back.Cookie != rule.Cookie {
		t.Errorf("header came back as table=%d priority=%d cookie=%#x from %q", back.TableID, back.Priority, back.Cookie, text)
	}
	if back.Match != rule.Match {
		t.Errorf("match came back as %q from %q", back.Match, text)
	}
	if !reflect.DeepEqual(back.Actions, rule.Actions) {
		t.Errorf("actions came back as %v from %q", back.Actions, text)
	}
	if got := (ofproto.MatchAny()).String(); got != "" {
		t.Errorf("MatchAny prints %q", got)
	}
}
