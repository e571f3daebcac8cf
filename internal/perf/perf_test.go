package perf

import (
	"runtime"
	"strings"
	"testing"

	"ovsxdp/internal/sim"
)

func TestStageAndResultNames(t *testing.T) {
	want := map[Stage]string{
		StageRx: "rx", StageEMC: "emc", StageDpcls: "dpcls",
		StageUpcall: "upcall", StageActions: "actions", StageIdle: "idle",
	}
	for st, name := range want {
		if st.String() != name {
			t.Fatalf("Stage(%d) = %q, want %q", st, st.String(), name)
		}
	}
	if ResultEMC.String() != "emc" || ResultMegaflow.String() != "megaflow" ||
		ResultUpcall.String() != "upcall" || ResultNone.String() != "-" {
		t.Fatal("Result names wrong")
	}
}

func TestCycleAccounting(t *testing.T) {
	s := &Stats{}
	s.Add(StageRx, 100)
	s.Add(StageEMC, 50)
	s.Add(StageActions, 30)
	s.Add(StageIdle, 1000)
	if s.BusyCycles() != 180 {
		t.Fatalf("busy = %d, want 180 (idle excluded)", s.BusyCycles())
	}
	if s.TotalCycles() != 1180 {
		t.Fatalf("total = %d, want 1180", s.TotalCycles())
	}
	s.Packets = 10
	if got := s.CyclesPerPacket(StageRx); got != 10 {
		t.Fatalf("rx/pkt = %v, want 10", got)
	}
	if (&Stats{}).CyclesPerPacket(StageRx) != 0 {
		t.Fatal("zero packets must not divide by zero")
	}
}

func TestBatchHistogram(t *testing.T) {
	s := &Stats{}
	s.AddBatch(2)
	s.AddBatch(4)
	if m := s.BatchMean(); m != 3 {
		t.Fatalf("batch mean = %v, want 3", m)
	}
}

func TestUpcallHistogram(t *testing.T) {
	s := &Stats{}
	for i := 1; i <= 100; i++ {
		s.AddUpcall(sim.Time(i) * sim.Microsecond)
	}
	if s.Upcalls != 100 || s.UpcallCount() != 100 {
		t.Fatalf("upcalls = %d/%d, want 100", s.Upcalls, s.UpcallCount())
	}
	sum := s.UpcallLatency()
	if sum.P50 <= 0 || sum.P99 < sum.P50 {
		t.Fatalf("latency summary %+v not ordered", sum)
	}
}

func TestTracerRingEvictsOldest(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.Add(TraceRecord{InPort: uint32(i)})
	}
	if tr.Seen() != 5 {
		t.Fatalf("seen = %d, want 5", tr.Seen())
	}
	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("retained %d, want 3", len(recs))
	}
	for i, r := range recs {
		if want := uint64(i + 2); r.Seq != want || r.InPort != uint32(want) {
			t.Fatalf("record %d = seq %d in %d, want oldest-first starting at 2", i, r.Seq, r.InPort)
		}
	}
}

// TestTracerRingWrapsTwice fills a ring past its capacity more than twice,
// checking after every Add that exactly the newest min(seen, cap) records
// are retained, oldest first.
func TestTracerRingWrapsTwice(t *testing.T) {
	const size = 4
	tr := NewTracer(size)
	if len(tr.Records()) != 0 {
		t.Fatal("a fresh ring must be empty")
	}
	for i := 0; i < 2*size+3; i++ {
		tr.Add(TraceRecord{InPort: uint32(100 + i)})
		recs := tr.Records()
		want := i + 1
		if want > size {
			want = size
		}
		if len(recs) != want || tr.Seen() != uint64(i+1) {
			t.Fatalf("after %d adds: retained %d (want %d), seen %d", i+1, len(recs), want, tr.Seen())
		}
		for j, r := range recs {
			if seq := uint64(i + 1 - want + j); r.Seq != seq || r.InPort != uint32(100+seq) {
				t.Fatalf("after %d adds: record %d = seq %d in %d, want seq %d", i+1, j, r.Seq, r.InPort, seq)
			}
		}
	}
}

func TestEnableTraceToggle(t *testing.T) {
	s := &Stats{}
	if s.Tracer() != nil || s.Trace() != nil {
		t.Fatal("tracing must be off by default")
	}
	s.EnableTrace(4)
	if s.Tracer() == nil {
		t.Fatal("tracer not armed")
	}
	s.Tracer().Add(TraceRecord{InPort: 1})
	if len(s.Trace()) != 1 {
		t.Fatal("trace record lost")
	}
	s.EnableTrace(0)
	if s.Tracer() != nil {
		t.Fatal("EnableTrace(0) must disable")
	}
}

func TestFormatTrace(t *testing.T) {
	s := &Stats{}
	s.EnableTrace(2)
	s.Tracer().Add(TraceRecord{InPort: 1, OutPort: 2, Result: ResultEMC,
		Start: 0, End: 700})
	out := FormatTrace([]ThreadStats{{Name: "pmd0", Stats: s}})
	for _, want := range []string{"pmd0: 1 traced", "in:1", "out:2", "via:emc"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
	off := &Stats{}
	if FormatTrace([]ThreadStats{{Name: "x", Stats: off}}) != "tracing not enabled\n" {
		t.Fatal("tracing-off sentinel wrong")
	}
}

// statsLoad is the recording half of one rx batch that raised one upcall,
// with latencies spread over 40-80 us the way a loaded handler's are.
func statsLoad(s *Stats, r *sim.Rand) {
	s.AddBatch(1 + r.Intn(32))
	s.AddUpcall(40*sim.Microsecond + sim.Time(r.Intn(int(40*sim.Microsecond))))
}

// TestStatsMemoryIsFixed is the daemon's memory ceiling for this block: a
// thread's statistics do not grow with the traffic it has seen. The
// sample-slice histograms grew 16 bytes per batch-and-upcall.
func TestStatsMemoryIsFixed(t *testing.T) {
	s := &Stats{}
	r := sim.NewRand(1)
	statsLoad(s, r)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // twice: sync.Pool victims outlive one cycle
	runtime.ReadMemStats(&before)
	for i := 0; i < 5_000_000; i++ {
		statsLoad(s, r)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 64<<10 {
		t.Fatalf("5M batches and 5M upcalls grew the heap by %d bytes, want at most 64 KB", grown)
	}
	if a := testing.AllocsPerRun(1000, func() { statsLoad(s, r) }); a != 0 {
		t.Fatalf("steady-state recording allocates %v objects per batch-and-upcall, want 0", a)
	}
	// 1 + 5M here, 1 + 1000 inside AllocsPerRun.
	if s.UpcallCount() != 5_001_002 || s.BatchMean() < 16 || s.BatchMean() > 17 {
		t.Fatalf("recorded %d upcalls, batch mean %v", s.UpcallCount(), s.BatchMean())
	}
}

// BenchmarkStatsRecord measures AddBatch + AddUpcall; B/op must read 0.
func BenchmarkStatsRecord(b *testing.B) {
	s := &Stats{}
	r := sim.NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		statsLoad(s, r)
	}
}
