package api

import (
	"reflect"
	"testing"

	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/perf"
	"ovsxdp/internal/sim"
)

func TestParseConfigArg(t *testing.T) {
	for _, tc := range []struct {
		in, key, value string
		wantErr        bool
	}{
		{in: "k=v", key: "k", value: "v"},
		{in: "k=", key: "k", value: ""},
		{in: "k=a=b", key: "k", value: "a=b"},
		{in: "=v", wantErr: true},
		{in: "=", wantErr: true},
		{in: "kv", wantErr: true},
		{in: "", wantErr: true},
	} {
		k, v, err := ParseConfigArg(tc.in)
		if (err != nil) != tc.wantErr || k != tc.key || v != tc.value {
			t.Errorf("ParseConfigArg(%q) = (%q, %q, %v), want (%q, %q, error %v)", tc.in, k, v, err, tc.key, tc.value, tc.wantErr)
		}
	}
	// The text every config surface shows for a malformed pair.
	if _, _, err := ParseConfigArg("=v"); err == nil || err.Error() != `expected key=value, got "=v"` {
		t.Errorf("error text = %v", err)
	}
}

func TestParseConfigArgs(t *testing.T) {
	got, err := ParseConfigArgs([]string{"a=1", "b=x=y", "a=2", "c="})
	if want := map[string]string{"a": "2", "b": "x=y", "c": ""}; err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseConfigArgs = %v, %v; want %v (the later duplicate wins)", got, err, want)
	}
	if got, err := ParseConfigArgs(nil); err != nil || got == nil || len(got) != 0 {
		t.Fatalf("no arguments = %v, %v; want an empty, non-nil map", got, err)
	}
	_, _, errOne := ParseConfigArg("oops")
	if got, err := ParseConfigArgs([]string{"a=1", "oops", "b=2"}); got != nil || err == nil || err.Error() != errOne.Error() {
		t.Fatalf("malformed pair = %v, %v; want no map and ParseConfigArg's own error %v", got, err, errOne)
	}
}

func TestPageFlows(t *testing.T) {
	views := []FlowView{{Text: "a"}, {Text: "b"}, {Text: "c"}, {Text: "d"}}
	for _, tc := range []struct {
		name          string
		offset, limit int
		wantOffset    int
		want          string
	}{
		{"first page", 0, 2, 0, "ab"},
		{"middle", 1, 2, 1, "bc"},
		{"limit runs past the end", 3, 10, 3, "d"},
		{"zero limit is the rest", 1, 0, 1, "bcd"},
		{"negative limit is the rest", 2, -5, 2, "cd"},
		{"oversized limit", 0, 1 << 30, 0, "abcd"},
		{"offset at the end", 4, 2, 4, ""},
		{"offset past the end", 99, 2, 99, ""},
		{"negative offset clamps to zero", -3, 2, 0, "ab"},
	} {
		p := PageFlows(views, tc.offset, tc.limit)
		got := ""
		for _, f := range p.Flows {
			got += f.Text
		}
		if got != tc.want || p.Total != len(views) || p.Offset != tc.wantOffset || p.Flows == nil {
			t.Errorf("%s: PageFlows(%d, %d) = %q total %d offset %d (nil flows: %v), want %q total %d offset %d, never nil",
				tc.name, tc.offset, tc.limit, got, p.Total, p.Offset, p.Flows == nil, tc.want, len(views), tc.wantOffset)
		}
	}
	if p := PageFlows(nil, 0, 10); p.Total != 0 || p.Flows == nil || len(p.Flows) != 0 {
		t.Errorf("empty dump = %+v, want an empty non-nil page", p)
	}
	// A page owns its flows: editing it must not reach the list it was cut from.
	p := PageFlows(views, 0, 2)
	p.Flows[0].Text = "edited"
	if views[0].Text != "a" {
		t.Error("PageFlows aliases the view list it pages")
	}
}

// The four constructors below promise a deep copy: whatever happens to the
// provider's data after construction, the view keeps reporting what it saw.
// Stats.Clone's aliasing bug was this contract broken one layer down.

// fakeDP is a datapath that reports canned statistics and nothing else.
type fakeDP struct {
	dpif.Dpif
	st  dpif.Stats
	ths []perf.ThreadStats
}

func (f fakeDP) Type() string                  { return "netdev" }
func (f fakeDP) Stats() dpif.Stats             { return f.st }
func (f fakeDP) PerfStats() []perf.ThreadStats { return f.ths }

func TestNewStatsViewDoesNotAliasSource(t *testing.T) {
	st := dpif.Stats{
		Hits: 7, Missed: 1, Flows: 1, Ports: 2, CtConns: 5, CtCreated: 6, OffloadHits: 3, OffloadInstalls: 2,
		ConnsPerZone: []dpif.CtZoneConns{{Zone: 1, Conns: 2}, {Zone: 9, Conns: 3}},
	}
	ths := []perf.ThreadStats{{Name: "pmd0", Stats: &perf.Stats{}}}
	ths[0].Packets, ths[0].EMCHits = 8, 7
	v := NewStatsView(fakeDP{st: st, ths: ths})
	want := NewStatsView(fakeDP{st: st.Clone(), ths: ths})

	st.ConnsPerZone[0].Conns = 999
	st.ConnsPerZone = append(st.ConnsPerZone[:1], dpif.CtZoneConns{Zone: 4, Conns: 4})
	ths[0].Packets, ths[0].EMCHits = 100, 100
	if !reflect.DeepEqual(v, want) {
		t.Fatalf("view changed with its source:\n got %+v ct %+v\nwant %+v ct %+v", v, v.Conntrack, want, want.Conntrack)
	}
	if len(v.Conntrack.PerZone) != 2 || v.Conntrack.PerZone[0].Conns != 2 || v.Cache.Packets != 8 || v.Offload.Hits != 3 || v.Ports != 2 {
		t.Fatalf("view = %+v ct %+v offload %+v", v, v.Conntrack, v.Offload)
	}
	// The blocks appear only once their subsystem has seen use.
	if idle := NewStatsView(fakeDP{st: dpif.Stats{Hits: 1}}); idle.Conntrack != nil || idle.Offload != nil {
		t.Fatalf("idle datapath reports conntrack %+v offload %+v", idle.Conntrack, idle.Offload)
	}
}

func TestNewPerfViewDoesNotAliasSource(t *testing.T) {
	s := &perf.Stats{}
	s.Packets, s.Iterations, s.EMCHits = 10, 4, 9
	s.Cycles[perf.StageRx], s.Cycles[perf.StageEMC] = 300, 100
	s.AddUpcall(20 * sim.Microsecond)
	v := NewPerfView([]perf.ThreadStats{{Name: "pmd0", Stats: s}})
	snapshot := NewPerfView([]perf.ThreadStats{{Name: "pmd0", Stats: s}})

	s.Packets, s.EMCHits = 1000, 1000
	s.Cycles[perf.StageRx] = 1 << 40
	s.AddUpcall(900 * sim.Microsecond)
	if !reflect.DeepEqual(v, snapshot) {
		t.Fatalf("view changed with its source:\n got %+v\nwant %+v", v, snapshot)
	}
	th := v.Threads[0]
	if th.Packets != 10 || th.UpcallLatency == nil || th.UpcallLatency.Count != 1 || th.UpcallLatency.P99us != 20 {
		t.Fatalf("thread view = %+v latency %+v", th, th.UpcallLatency)
	}
	for _, st := range th.Stages {
		if st.Stage == perf.StageOffload.String() {
			t.Fatal("offload stage listed though hw-offload never fired")
		}
		if st.Stage == perf.StageRx.String() && (st.Cycles != 300 || st.Pct != 75 || st.PerPacket != 30) {
			t.Fatalf("rx stage = %+v, want 300 cycles, 75%%, 30/pkt", st)
		}
	}
}

func TestNewFlowViewsDoesNotAliasSource(t *testing.T) {
	cls := dpcls.New(1)
	mask := flow.NewMaskBuilder().IP4Src(32).Build()
	var flows []dpif.Flow
	for i := 3; i >= 1; i-- {
		key := (&flow.Fields{IP4Src: hdr.MakeIP4(10, 0, 0, byte(i))}).Pack()
		e := cls.InsertKey(&key, &mask, nil)
		e.Hits = uint64(i)
		flows = append(flows, dpif.Flow{Entry: e})
	}
	views := NewFlowViews(flows)
	want := append([]FlowView(nil), views...)
	if len(views) != 3 || views[0].Hits != 1 || views[2].Hits != 3 || views[0].MaskBits != 32 || !(views[0].Text < views[1].Text && views[1].Text < views[2].Text) {
		t.Fatalf("views = %+v, want three 32-bit megaflows sorted by text", views)
	}
	for _, f := range flows {
		f.Entry.Hits += 1000
		cls.Remove(f.Entry)
	}
	if !reflect.DeepEqual(views, want) {
		t.Fatalf("views changed with the classifier:\n got %+v\nwant %+v", views, want)
	}
}

func TestNewConfigViewDoesNotAliasSource(t *testing.T) {
	kv := map[string]string{"emc-enable": "true", "ct-shards": "8"}
	v := NewConfigView(kv)
	kv["emc-enable"] = "false"
	kv["added"] = "1"
	delete(kv, "ct-shards")
	if want := map[string]string{"emc-enable": "true", "ct-shards": "8"}; !reflect.DeepEqual(v.Values, want) {
		t.Fatalf("view = %v, want %v", v.Values, want)
	}
	if got, want := v.Format(), "ct-shards=8\nemc-enable=true\n"; got != want {
		t.Fatalf("Format = %q, want %q", got, want)
	}
	// ... and in the other direction: editing a view never reaches its source.
	v.Values["ct-shards"] = "1"
	if _, ok := kv["ct-shards"]; ok {
		t.Fatal("view write reached the source map")
	}
	if v := NewConfigView(nil); v.Values == nil || v.Format() != "" {
		t.Fatalf("nil config = %+v, want an empty non-nil map", v)
	}
}
