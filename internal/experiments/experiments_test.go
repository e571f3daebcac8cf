package experiments

import (
	"testing"

	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/measure"
	"ovsxdp/internal/sim"
)

// The experiment tests assert the paper's qualitative shapes — orderings,
// ratios, crossovers — using the Quick profile. Absolute numbers are
// checked loosely; EXPERIMENTS.md records the full paper-vs-measured table
// from the Full profile.

func row(t *testing.T, r *Report, name string) Row {
	t.Helper()
	for _, row := range r.Rows {
		if row.Name == name {
			return row
		}
	}
	t.Fatalf("report %s has no row %q", r.ID, name)
	return Row{}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig2", "fig8a", "fig8b", "fig8c", "fig9a", "fig9b",
		"fig9c", "fig10", "fig11", "fig12", "table1", "table2", "table3",
		"table4", "table5"}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(All()) < len(want) {
		t.Errorf("registry has %d experiments, want >= %d", len(All()), len(want))
	}
}

func TestFig2Shape(t *testing.T) {
	r := runFig2(Quick)
	kernel := row(t, r, "kernel").Measured
	ebpf := row(t, r, "ebpf").Measured
	dpdk := row(t, r, "dpdk").Measured
	if !(dpdk > kernel && kernel > ebpf) {
		t.Fatalf("fig2 ordering violated: dpdk=%.2f kernel=%.2f ebpf=%.2f", dpdk, kernel, ebpf)
	}
	// eBPF is 10-20% slower than the kernel module.
	ratio := ebpf / kernel
	if ratio < 0.75 || ratio > 0.95 {
		t.Fatalf("ebpf/kernel = %.2f, want 0.80-0.90", ratio)
	}
}

func TestTable2Ladder(t *testing.T) {
	r := runTable2(Quick)
	names := []string{"none", "O1", "O1+O2", "O1+O2+O3", "O1..O4", "O1..O5"}
	prev := 0.0
	for _, n := range names {
		got := row(t, r, n)
		if got.Measured <= prev {
			t.Fatalf("ladder not monotone at %s: %.2f <= %.2f", n, got.Measured, prev)
		}
		if got.Ratio() < 0.7 || got.Ratio() > 1.3 {
			t.Errorf("%s: measured %.2f vs paper %.2f (x%.2f)", n, got.Measured, got.Paper, got.Ratio())
		}
		prev = got.Measured
	}
	// O1 is the big jump (6x in the paper).
	if row(t, r, "O1").Measured/row(t, r, "none").Measured < 3 {
		t.Error("O1 (PMD threads) must be the dominant optimization")
	}
}

func TestTable5Shape(t *testing.T) {
	r := runTable5(Quick)
	a := row(t, r, "A: drop only").Measured
	b := row(t, r, "B: parse eth/ipv4, drop").Measured
	c := row(t, r, "C: parse, L2 lookup, drop").Measured
	d := row(t, r, "D: parse, swap MACs, fwd").Measured
	if !(a > b && b > c && c > d) {
		t.Fatalf("task rates must degrade with complexity: %.1f %.1f %.1f %.1f", a, b, c, d)
	}
	for _, rr := range r.Rows {
		if rr.Ratio() < 0.8 || rr.Ratio() > 1.25 {
			t.Errorf("%s: x%.2f off the paper anchor", rr.Name, rr.Ratio())
		}
	}
}

func TestFig9aShape(t *testing.T) {
	r := runFig9a(Quick)
	k1 := row(t, r, "kernel 1-flow").Measured
	k1000 := row(t, r, "kernel 1000-flow").Measured
	a1 := row(t, r, "afxdp 1-flow").Measured
	d1 := row(t, r, "dpdk 1-flow").Measured
	a1000 := row(t, r, "afxdp 1000-flow").Measured
	d1000 := row(t, r, "dpdk 1000-flow").Measured

	if !(d1 > a1 && a1 > k1) {
		t.Fatalf("1-flow ordering: dpdk=%.1f afxdp=%.1f kernel=%.1f", d1, a1, k1)
	}
	// Only the kernel gains from 1000 flows (RSS spreads them).
	if k1000 <= k1 {
		t.Fatalf("kernel must gain from RSS at 1000 flows: %.1f vs %.1f", k1000, k1)
	}
	if a1000 >= a1 || d1000 >= d1 {
		t.Fatal("userspace datapaths must lose throughput at 1000 flows")
	}
	// Kernel CPU cost: fast but wildly inefficient.
	kcpu := row(t, r, "kernel 1000-flow cpu").Measured
	dcpu := row(t, r, "dpdk 1000-flow cpu").Measured
	if kcpu < 5*dcpu {
		t.Fatalf("kernel must burn far more CPU than dpdk: %.1f vs %.1f HT", kcpu, dcpu)
	}
}

func TestFig9cShape(t *testing.T) {
	r := runFig9c(Quick)
	ax := row(t, r, "afxdp-xdp-redirect 1000-flow").Measured
	k := row(t, r, "kernel 1000-flow").Measured
	d := row(t, r, "dpdk 1000-flow").Measured
	// Outcome #2: AF_XDP wins the container scenario outright.
	if !(ax > k && ax > d) {
		t.Fatalf("PCP: afxdp=%.1f must beat kernel=%.1f and dpdk=%.1f", ax, k, d)
	}
}

func TestFig11Shape(t *testing.T) {
	r := runFig11(Quick)
	kP50 := row(t, r, "kernel P50").Measured
	aP50 := row(t, r, "afxdp-xdp-redirect P50").Measured
	dP50 := row(t, r, "dpdk P50").Measured
	dP99 := row(t, r, "dpdk P99").Measured
	// Kernel and AF_XDP are close; DPDK is 5-12x worse with a heavy tail.
	if aP50 > kP50*1.3 || kP50 > aP50*1.3 {
		t.Fatalf("kernel (%.1f) and afxdp (%.1f) P50 should be close", kP50, aP50)
	}
	if dP50 < 4*kP50 {
		t.Fatalf("dpdk P50 (%.1f) must be several times the kernel's (%.1f)", dP50, kP50)
	}
	if dP99 < 1.5*dP50 {
		t.Fatalf("dpdk must have a heavy tail: P99=%.1f P50=%.1f", dP99, dP50)
	}
}

func TestFig10Shape(t *testing.T) {
	r := runFig10(Quick)
	k := row(t, r, "kernel P50").Measured
	a := row(t, r, "afxdp P50").Measured
	d := row(t, r, "dpdk P50").Measured
	// Kernel slowest; AF_XDP barely trails DPDK.
	if !(k > a && a > d) {
		t.Fatalf("fig10 P50 ordering: kernel=%.1f afxdp=%.1f dpdk=%.1f", k, a, d)
	}
	if a > d*1.25 {
		t.Fatalf("afxdp (%.1f us) must barely trail dpdk (%.1f us)", a, d)
	}
}

func TestTable1Compatibility(t *testing.T) {
	r := runTable1(Quick)
	for _, rr := range r.Rows {
		if rr.Unit != "works" {
			continue
		}
		isDPDK := len(rr.Name) > 7 && rr.Name[len(rr.Name)-4:] == "dpdk"
		if isDPDK && rr.Measured != 0 {
			t.Errorf("%s: DPDK-bound NIC must break the tool", rr.Name)
		}
		if !isDPDK && rr.Measured != 1 {
			t.Errorf("%s: AF_XDP-managed NIC must keep the tool working", rr.Name)
		}
	}
}

func TestTable3Exact(t *testing.T) {
	r := runTable3(Quick)
	for _, name := range []string{"Geneve tunnels", "VMs (two interfaces per VM)",
		"OpenFlow rules", "OpenFlow tables"} {
		rr := row(t, r, name)
		if rr.Measured != rr.Paper {
			t.Errorf("%s: %.0f != paper %.0f", name, rr.Measured, rr.Paper)
		}
	}
}

func TestFig8bOffloadLadder(t *testing.T) {
	r := runFig8b(Quick)
	none := row(t, r, "afxdp + vhost (no offload)").Measured
	csum := row(t, r, "afxdp + vhost (csum)").Measured
	tso := row(t, r, "afxdp + vhost (csum+TSO)").Measured
	kernel := row(t, r, "kernel + tap (csum+TSO)").Measured
	if !(none < csum && csum < tso) {
		t.Fatalf("offload ladder broken: %.1f %.1f %.1f", none, csum, tso)
	}
	// The final configuration outperforms the kernel datapath.
	if tso <= kernel {
		t.Fatalf("vhost+TSO (%.1f) must beat kernel+tap (%.1f)", tso, kernel)
	}
}

func TestFig8cOutcome1(t *testing.T) {
	r := runFig8c(Quick)
	kOff := row(t, r, "kernel veth (csum+TSO)").Measured
	xdpRedir := row(t, r, "afxdp XDP redirect").Measured
	aTSO := row(t, r, "afxdp veth (csum+TSO)").Measured
	// Outcome #1: in-kernel networking stays faster for container TCP.
	if kOff <= aTSO || kOff <= xdpRedir {
		t.Fatalf("kernel with offloads (%.1f) must beat afxdp (%.1f) and redirect (%.1f)",
			kOff, aTSO, xdpRedir)
	}
}

func TestProbeHarness(t *testing.T) {
	// The probe/lossless-search plumbing on a trivially sustainable load.
	cfg := DefaultBed(KindDPDK, 1)
	bed := NewP2PBed(cfg)
	res := RunProbe(bed, 1e5, Quick.Warmup, Quick.Window)
	if res.Delivered == 0 || res.LossFraction() > 0 {
		t.Fatalf("100kpps through DPDK must be lossless: %+v", res)
	}
	if res.Usage.Total() <= 0 {
		t.Fatal("usage must be accounted")
	}
	_ = measure.Mpps(1e6)
}

func TestReportFormatting(t *testing.T) {
	r := &Report{ID: "x", Title: "t"}
	r.Add("a", 1.5, 3.0, "Mpps")
	r.Add("b", 2.0, 0, "Gbps")
	r.AddNote("note %d", 7)
	out := r.String()
	for _, want := range []string{"x", "a", "x0.50", "note 7"} {
		if !contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestStageCyclesSumToBusy: every processing thread's stage cycles add up
// to the busy time of the CPUs it ran on — with Figure 12's multi-PMD
// contention surcharge, and with a bounded upcall queue, whose translations
// the handler thread pays for.
func TestStageCyclesSumToBusy(t *testing.T) {
	bounded := map[string]string{"upcall-queue-cap": "4"}
	for _, c := range []struct {
		name       string
		kind       DPKind
		contention int
		other      map[string]string
	}{
		{"netdev contention", KindAFXDP, costmodel.ContentionAFXDPCentis, nil},
		{"netdev bounded queue", KindAFXDP, 0, bounded},
		{"netlink", KindKernel, 0, nil},
		{"netlink bounded queue", KindKernel, 0, bounded},
	} {
		cfg := DefaultBed(c.kind, 256)
		cfg.Queues = 2
		cfg.Opts.ContentionCentis = c.contention
		cfg.Other = c.other
		bed := NewP2PBed(cfg)
		bed.Gen.Run(2e6, 2*sim.Millisecond)
		bed.Eng.RunUntil(3 * sim.Millisecond)

		if nd, ok := bed.DP.(*dpif.Netdev); ok {
			for _, m := range nd.Datapath().PMDs() {
				if stages, busy := m.Perf.TotalCycles(), m.CPU.BusyTotal(); stages != busy {
					t.Errorf("%s: %s stages %d ns, CPU busy %d ns", c.name, m.CPU.Name(), stages, busy)
				}
			}
			continue
		}
		var busy sim.Time
		for _, a := range bed.Actors {
			busy += a.CPU.BusyTotal()
		}
		if stages := bed.DP.PerfStats()[0].Stats.TotalCycles(); stages != busy {
			t.Errorf("%s: softirq stages %d ns, CPUs busy %d ns", c.name, stages, busy)
		}
	}
}
