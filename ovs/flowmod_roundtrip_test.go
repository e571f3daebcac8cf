package ovs

import (
	"reflect"
	"strings"
	"testing"

	"ovsxdp/internal/flow"
	"ovsxdp/internal/nsx"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/openflow"
)

// sameRule reports whether got is want in table, priority, cookie, match
// and actions.
func sameRule(got, want *ofproto.Rule) bool {
	return got.TableID == want.TableID && got.Priority == want.Priority && got.Cookie == want.Cookie &&
		got.Match == want.Match && reflect.DeepEqual(got.Actions, want.Actions)
}

// nsxSpecialRules are the generator's special firewall rules, the ones that
// match on more than the 5-tuple: priorities 780 to 900 of the DFW tables.
func nsxSpecialRules() []*ofproto.Rule {
	cfg := nsx.DefaultConfig()
	cfg.TargetRules = 0
	var out []*ofproto.Rule
	for _, r := range nsx.Generate(cfg).Rules {
		if r.TableID >= nsx.TableDFWBase && r.TableID < nsx.TableL2 && r.Priority >= 780 {
			out = append(out, r)
		}
	}
	return out
}

// carried is the part of the packed key the rows of flow.MatchFields state.
func carried() flow.Key {
	var f flow.Fields
	for i := range flow.MatchFields {
		r := &flow.MatchFields[i]
		r.Set(&f, r.Ones())
	}
	return f.Pack()
}

// FuzzFlowModRoundTrip: every rule ParseFlow accepts crosses the OpenFlow
// wire unchanged — DecodeFlowMod(EncodeFlowMod(AddFlow(r))) is r in table,
// priority, cookie, match and actions. Mask bits added outside every row
// (word picks the key word) make EncodeFlowMod refuse the rule by name
// instead of sending it without them. Seeds: flowparse_test.go's specs, the
// 13 NSX special rules as flow text, and a NAT port range.
func FuzzFlowModRoundTrip(f *testing.F) {
	for _, s := range stringLiterals(f, "flowparse_test.go") {
		f.Add(s, uint8(0), uint64(0))
	}
	specials := nsxSpecialRules()
	if len(specials) != 13 {
		f.Fatalf("%d NSX special rules, want 13", len(specials))
	}
	for _, r := range specials {
		text := r.String()
		if back, err := ParseFlow(text); err != nil || !sameRule(back, r) {
			f.Fatalf("NSX rule %v does not parse back from %q: %v", r, text, err)
		}
		f.Add(text, uint8(0), uint64(0))
	}
	f.Add("ip,actions=ct(commit,zone=7,table=3,nat(snat=192.0.2.1:1024-2047))", uint8(0), uint64(0))
	f.Add("tcp,tcp_flags=+syn+fin,actions=drop", uint8(6), uint64(1)) // ipv6 source bits
	f.Add("icmp,icmp_type=8,actions=drop", uint8(5), uint64(0xff))    // bits between icmp_code and the word's end
	keep := carried()
	f.Fuzz(func(t *testing.T, spec string, word uint8, extra uint64) {
		r, err := ParseFlow(spec)
		if err != nil {
			return
		}
		w := int(word) % flow.KeyWords
		outside := extra &^ keep[w]
		r.Match.Mask[w] |= outside
		msg, err := openflow.EncodeFlowMod(openflow.AddFlow(r))
		if outside != 0 {
			if err == nil || !strings.Contains(err.Error(), "carries the match on") {
				t.Fatalf("%q with mask bits %#x in word %d outside every row: EncodeFlowMod error %v", spec, outside, w, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("%q: EncodeFlowMod: %v", spec, err)
		}
		fm, err := openflow.DecodeFlowMod(msg)
		if err != nil {
			t.Fatalf("%q: DecodeFlowMod of its own encoding: %v", spec, err)
		}
		got := &ofproto.Rule{TableID: fm.TableID, Priority: fm.Priority, Cookie: fm.Cookie, Match: fm.Match, Actions: fm.Actions}
		if !sameRule(got, r) {
			t.Fatalf("%q crossed the wire as\n %v\nwant\n %v", spec, got, r)
		}
	})
}
