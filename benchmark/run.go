package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"ovsxdp/internal/measure"
	"ovsxdp/internal/perf"
	"ovsxdp/internal/sim"
)

// runSeconds is BENCHMARK.json's run_seconds: about how long the timed phase
// of a full-scale run takes on the seed commit.
const runSeconds = 10

// scale sizes one run. There are two, both constants: every full-scale result
// is the same virtual experiment on every commit and host, and the smoke
// scale keeps tier-1 fast.
type scale struct {
	// setups is how many fresh beds are built and warmed; setup_s is the
	// median and the last bed is kept.
	setups  int
	windows int
	// shrink divides the warm-up and timed-window lengths (capacity probes
	// keep theirs: a shorter probe would end inside the megaflow set-up).
	shrink sim.Time
	// probeIters is the bisection depth of the capacity search.
	probeIters int
	// replayOps is how many calls each layer-replay measurement times.
	replayOps int
}

// fullScale is three windows per run second: a window takes about a third of
// a wall second on the seed commit.
var (
	fullScale  = scale{setups: 5, windows: 3 * runSeconds, shrink: 1, probeIters: 10, replayOps: 400_000}
	smokeScale = scale{setups: 1, windows: 2, shrink: 8, probeIters: 3, replayOps: 20_000}
)

// counters is a snapshot of every cumulative counter the per-layer metrics
// are differences of.
type counters struct {
	sent, events             uint64
	cycles                   [perf.NumStages]sim.Time
	perfPackets              uint64
	emcHits, smcHits         uint64
	megaflowHits, upcalls    uint64
	emcLookups, smcLookups   uint64
	dpclsLookups, dpclsProbe uint64
	processed                uint64
	revalChecks, revalEvict  uint64
	revalBusy                sim.Time
	ctCreated, ctExpired     uint64
	ctLookups                uint64
	nicRx, xskDelivered      uint64
	busy                     [sim.NumCategories]sim.Time
	napiPolls, napiPackets   uint64
}

func (in *instance) snap() counters {
	c := counters{sent: in.sent(), events: in.eng.Executed()}
	for _, t := range in.threads() {
		for st, v := range t.stats.Cycles {
			c.cycles[st] += v
		}
		c.perfPackets += t.stats.Packets
		c.emcHits += t.stats.EMCHits
		c.smcHits += t.stats.SMCHits
		c.megaflowHits += t.stats.MegaflowHits
		c.upcalls += t.stats.Upcalls
	}
	st := in.dp.Stats()
	c.processed = st.Processed
	if dp := in.netdev(); dp != nil {
		for _, m := range dp.PMDs() {
			h, miss := m.EMCStats()
			c.emcLookups += h + miss
			h, miss = m.SMCStats()
			c.smcLookups += h + miss
			c.dpclsLookups += m.Classifier().Lookups
			c.dpclsProbe += m.Classifier().SubtableProbes
		}
	} else {
		// The kernel flow table is private to kernelsim; it is looked up
		// once per fast-path pass.
		c.dpclsLookups = st.Hits + st.Missed
	}
	if in.reval != nil {
		c.revalChecks, c.revalEvict = in.reval.Checks, in.reval.Evicted
		c.revalBusy = in.reval.CPU.BusyTotal()
	}
	c.ctCreated, c.ctExpired = st.CtCreated, st.CtExpired
	if in.ct != nil {
		for _, n := range in.ct.ShardLookups(nil) {
			c.ctLookups += n
		}
	}
	if in.bed != nil {
		c.nicRx = in.bed.NICA.RxPacketsTotal()
	}
	for _, p := range in.afxdpPorts() {
		for q := 0; q < p.NumRxQueues(); q++ {
			c.xskDelivered += p.XSK(q).RxDelivered
		}
	}
	for _, cpu := range in.eng.CPUs() {
		for cat := sim.Category(0); cat < sim.NumCategories; cat++ {
			c.busy[cat] += cpu.Busy(cat)
		}
	}
	for _, a := range in.napiActors() {
		c.napiPolls += a.Polls
		c.napiPackets += a.Packets
	}
	return c
}

// dropClass is one way a packet offered to the system can end other than in
// the sink.
type dropClass struct {
	name string
	n    uint64
}

// drops lists every drop class, for the offered = delivered + drops ledger.
func (in *instance) drops() (classes []dropClass) {
	add := func(name string, n uint64) { classes = append(classes, dropClass{name, n}) }
	st := in.dp.Stats()
	add("dp_lost", st.Lost)
	add("upcall_queue", st.UpcallQueueDrops)
	add("malformed", st.MalformedDrops)
	if in.bed != nil {
		add("nic_rx", in.nicRxDrops())
		add("nic_link", in.bed.NICA.LinkDownRx+in.bed.NICA.LinkDownTx+in.bed.NICB.LinkDownRx+in.bed.NICB.LinkDownTx)
		rx, tx := in.afxdpDrops()
		add("xsk_rx", rx)
		add("xsk_tx", tx)
	}
	if in.ct != nil {
		add("ct_shed", in.shed)
	}
	return classes
}

func (in *instance) totalDrops() (n uint64) {
	for _, c := range in.drops() {
		n += c.n
	}
	return n
}

func (in *instance) nicRxDrops() uint64 {
	if in.bed == nil {
		return 0
	}
	return in.bed.NICA.RxDropsTotal() + in.bed.NICB.RxDropsTotal()
}

func (in *instance) afxdpDrops() (rx, tx uint64) {
	for _, p := range in.afxdpPorts() {
		for q := 0; q < p.NumRxQueues(); q++ {
			x := p.XSK(q)
			rx += x.RxDropFill + x.RxDropRing + x.RxDropStall
		}
		tx += p.TxDrops
	}
	return rx, tx
}

// setUp builds a fresh bed, starts its generator and runs the virtual
// warm-up, returning the bed and the wall time all of that took.
func setUp(w workload, sc scale, seed uint64, rate float64, tr *tracer) (*instance, float64) {
	t0 := time.Now()
	in := w.instantiate(seed, rate, tr)
	in.gen.start()
	in.eng.RunUntil(w.warmup / sc.shrink)
	return in, time.Since(t0).Seconds()
}

// runWorkload executes one workload end to end: set-up, timed windows, live
// heap, drain and ledgers, capacity search, and (traced) spans and replay.
func runWorkload(w workload, sc scale, seed uint64, traced bool) (*result, *traceFile) {
	res := &result{Workload: w.name, Seed: seed, Windows: sc.windows, Traced: traced,
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}}
	var tr *tracer
	if traced {
		tr = &tracer{}
	}

	// (1) Set-up.
	var in *instance
	setups := make([]float64, sc.setups)
	for i := range setups {
		in = nil
		runtime.GC() // the previous bed is garbage; do not bill it to this one
		in, setups[i] = setUp(w, sc, seed, w.ratePPS, tr)
	}
	res.e2eMedian("setup_s", setups)

	// (2) Timed phase. In a traced run odd windows record spans and even
	// ones do not, on the same bed, so the overhead figure compares like
	// with like.
	window := w.window / sc.shrink
	in.gen.beginTimed()
	c0 := in.snap()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var plain, spanned []float64 // simulated Mpkt per wall second, per window
	var evRate []float64         // engine Mevents per wall second
	for i := 0; i < sc.windows; i++ {
		on := traced && i%2 == 1
		if traced {
			tr.on = on
		}
		sent0, ev0 := in.sent(), in.eng.Executed()
		t0 := time.Now()
		in.eng.RunUntil(in.eng.Now() + window)
		wall := time.Since(t0)
		rate := float64(in.sent()-sent0) / wall.Seconds() / 1e6
		if on {
			tr.add(spanRunUntil, int64(wall))
			tr.endWindow(i)
			spanned = append(spanned, rate)
		} else {
			plain = append(plain, rate)
			evRate = append(evRate, float64(in.eng.Executed()-ev0)/wall.Seconds()/1e6)
		}
	}
	if traced {
		tr.on = false
	}
	runtime.ReadMemStats(&ms1)
	c1 := in.snap()
	virtual := sim.Time(sc.windows) * window
	res.e2eMedian("sim_mpps_wall", plain)

	// (3) Live heap, with the bed and everything it accumulated referenced.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.e2e("live_heap_mb", float64(ms.HeapAlloc)/(1<<20))

	// (4) Drain and check.
	in.liveCounts(res)
	in.gen.stop()
	res.Attempted = c1.sent - c0.sent
	in.drain(w)
	in.ledgers(res)

	in.counterMetrics(res, c0, c1, virtual, evRate, ms0, ms1)
	lat := in.gen.stats().lat
	res.LatSamples, res.LatAboveP99 = lat.n, lat.above(0.99)
	res.e2e("virt_lat_p50_us", float64(lat.quantile(0.50))/1e3)
	res.e2e("virt_lat_p99_us", float64(lat.quantile(0.99))/1e3)

	// (5) Capacity.
	if w.nicDriven {
		res.e2e("virt_lossless_mpps", losslessMpps(w, sc, seed))
	} else {
		// Nothing queues on an Execute-driven bed: the thread's capacity
		// is the reciprocal of its cost per packet, as churnscale and
		// connscale report it.
		res.e2e("virt_lossless_mpps", 1e3/res.EndToEnd["virt_ns_per_pkt"].Value)
	}

	var tf *traceFile
	if traced {
		spanMetrics(res, tr, in, median(plain), median(spanned))
		replay := replayMetrics(res, w, sc, in, c0, c1)
		tf = &traceFile{Workload: w.name, Seed: seed, SampleEvery: sampleEvery,
			Windows: tr.windows, ReplayNs: replay}
	}
	res.Correct = len(res.Violations) == 0 && res.Failed == 0
	return res, tf
}

// drain advances virtual time after the generator has stopped until
// in-flight packets and idle timers settle (at most 16 steps).
func (in *instance) drain(w workload) {
	for i := 0; i < 16 && !in.settled(); i++ {
		in.eng.RunUntil(in.eng.Now() + w.drainStep)
	}
}

func (in *instance) settled() bool {
	switch {
	case in.reval != nil:
		return in.dp.Stats().Flows == 0
	case in.ct != nil:
		return in.ct.Len() == 0
	default:
		return in.sent() == in.gen.stats().delivered+in.totalDrops()
	}
}

// ledgers runs every conservation check after the drain and records the
// timed phase's failures: frames offered that never reached the sink, plus
// frames that arrived altered.
func (in *instance) ledgers(res *result) {
	gs := in.gen.stats()
	check := func(ok bool, format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		if !ok {
			line = "VIOLATED: " + line
			res.Violations = append(res.Violations, line)
		}
		res.Ledgers = append(res.Ledgers, line)
	}

	detail := ""
	for _, c := range in.drops() {
		detail += fmt.Sprintf(" + %s %d", c.name, c.n)
	}
	check(gs.sent == gs.delivered+in.totalDrops(), "offered %d = delivered %d%s", gs.sent, gs.delivered, detail)
	check(gs.corrupt == 0, "frames altered in transit: %d", gs.corrupt)
	check(gs.deliveredTimed <= res.Attempted, "timed phase offered %d >= delivered %d", res.Attempted, gs.deliveredTimed)
	res.Failed = gs.corrupt
	if gs.deliveredTimed < res.Attempted {
		res.Failed += res.Attempted - gs.deliveredTimed
	}

	if r := in.reval; r != nil {
		live := uint64(in.dp.Stats().Flows)
		check(r.Installs == r.Evicted+live, "megaflow installs %d = evicted %d + live %d", r.Installs, r.Evicted, live)
		check(live == 0, "megaflows live after drain: %d", live)
	}
	if in.ct != nil {
		c := in.ct.Counters()
		check(c.Created == c.Expired+c.EarlyDrops+c.Evicted+uint64(c.Conns),
			"connections created %d = expired %d + early-dropped %d + evicted %d + live %d",
			c.Created, c.Expired, c.EarlyDrops, c.Evicted, c.Conns)
		check(c.Conns == 0, "connections live after drain: %d", c.Conns)
	}
	if err := in.checkThreads(); err != nil {
		check(false, "%v", err)
	} else {
		check(true, "perf TotalCycles = CPU BusyTotal on each of %d threads", len(in.threads()))
	}
}

// counterMetrics fills the virtual end-to-end cost and every per-layer
// counter metric from the timed phase's counter deltas.
func (in *instance) counterMetrics(res *result, c0, c1 counters, virtual sim.Time, evRate []float64, ms0, ms1 runtime.MemStats) {
	pkts := float64(c1.sent - c0.sent)
	perPkt := func(a, b uint64) float64 { return float64(a-b) / pkts }
	perKpkt := func(a, b uint64) float64 { return 1e3 * float64(a-b) / pkts }
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}

	// Busy virtual ns of all packet-processing threads per packet, and the
	// seven stage terms that must add up to it.
	perfPkts := float64(c1.perfPackets - c0.perfPackets)
	var busy, total sim.Time
	stageSum := 0.0
	for st := perf.StageRx; st < perf.NumStages; st++ {
		d := c1.cycles[st] - c0.cycles[st]
		total += d
		if st == perf.StageIdle {
			continue
		}
		busy += d
		v := float64(d) / perfPkts
		stageSum += v
		res.layer("perf."+st.String()+"_ns_per_pkt", v)
	}
	nsPerPkt := float64(busy) / perfPkts
	res.e2e("virt_ns_per_pkt", nsPerPkt)
	if diff := stageSum - nsPerPkt; diff > 1e-6*nsPerPkt || diff < -1e-6*nsPerPkt {
		res.Violations = append(res.Violations,
			fmt.Sprintf("VIOLATED: stage terms sum to %.6f, virt_ns_per_pkt is %.6f", stageSum, nsPerPkt))
	}
	res.Ledgers = append(res.Ledgers, fmt.Sprintf("stage terms sum %.4f = virt_ns_per_pkt %.4f", stageSum, nsPerPkt))
	res.layer("perf.idle_share", ratio(uint64(c1.cycles[perf.StageIdle]-c0.cycles[perf.StageIdle]), uint64(total)))

	res.layer("sim.events_per_pkt", perPkt(c1.events, c0.events))
	res.layerMedian("sim.mev_per_wall_s", evRate)

	res.layer("emc.hit_ratio", ratio(c1.emcHits-c0.emcHits, c1.emcLookups-c0.emcLookups))
	res.layer("smc.hit_ratio", ratio(c1.smcHits-c0.smcHits, c1.smcLookups-c0.smcLookups))
	res.layer("dpcls.hit_ratio", ratio(c1.megaflowHits-c0.megaflowHits, c1.dpclsLookups-c0.dpclsLookups))
	res.layer("dpcls.probes_per_lookup", ratio(c1.dpclsProbe-c0.dpclsProbe, c1.dpclsLookups-c0.dpclsLookups))

	res.layer("core.upcalls_per_kpkt", perKpkt(c1.upcalls, c0.upcalls))
	res.layer("dpif.reval_checks_per_kpkt", perKpkt(c1.revalChecks, c0.revalChecks))
	res.layer("dpif.reval_evictions_per_kpkt", perKpkt(c1.revalEvict, c0.revalEvict))
	res.layer("dpif.reval_duty_pct", 100*float64(c1.revalBusy-c0.revalBusy)/float64(virtual))
	res.layer("conntrack.created_per_kpkt", perKpkt(c1.ctCreated, c0.ctCreated))
	res.layer("conntrack.expired_per_kpkt", perKpkt(c1.ctExpired, c0.ctExpired))
	res.layer("conntrack.lookups_per_pkt", perPkt(c1.ctLookups, c0.ctLookups))
	res.layer("kernelsim.softirq_ns_per_pkt", float64(c1.busy[sim.Softirq]-c0.busy[sim.Softirq])/pkts)
	res.layer("kernelsim.system_ns_per_pkt", float64(c1.busy[sim.System]-c0.busy[sim.System])/pkts)

	// Whole-run readings (the APIs expose no window): the batch and upcall
	// histograms cover warm-up too, and the drop counters are read after
	// the drain, where a loss anywhere in the run shows.
	var upcallP99, batchMean, batches float64
	var queueDrops uint64
	for _, t := range in.threads() {
		if p := t.stats.UpcallLatency().P99; p > upcallP99 {
			upcallP99 = p
		}
		if m := t.stats.BatchMean(); m > 0 {
			batchMean += m
			batches++
		}
		queueDrops += t.stats.UpcallQueueDrops
	}
	if batches > 0 {
		batchMean /= batches
	} else if c1.napiPolls > c0.napiPolls {
		// The kernel bed's NAPI handler bypasses the perf batch
		// histogram; its actors count polls and packets themselves.
		batchMean = ratio(c1.napiPackets-c0.napiPackets, c1.napiPolls-c0.napiPolls)
	}
	res.layer("core.upcall_p99_us", upcallP99/1e3)
	res.layer("core.rx_batch_mean", batchMean)
	res.layer("core.upcall_queue_drops", float64(queueDrops))
	rx, tx := in.afxdpDrops()
	res.layer("nicsim.rx_drops", float64(in.nicRxDrops()))
	res.layer("afxdp.rx_drops", float64(rx))
	res.layer("afxdp.tx_drops", float64(tx))

	res.layer("go.allocs_per_kpkt", 1e3*float64(ms1.Mallocs-ms0.Mallocs)/pkts)
	res.layer("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	res.layer("go.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		res.layer("go.peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports KiB
	} else {
		res.layer("go.peak_rss_mb", 0)
	}
}

// liveCounts records the table sizes at the end of the timed phase; called
// before the drain empties them.
func (in *instance) liveCounts(res *result) {
	st := in.dp.Stats()
	res.layer("dpcls.flows_live", float64(st.Flows))
	res.layer("conntrack.conns_live", float64(st.CtConns))
}

// losslessMpps is the RFC 2544-style capacity search: the highest offered
// rate at which a fresh bed, driven by this workload's own generator, drops
// nothing over the probe window.
func losslessMpps(w workload, sc scale, seed uint64) float64 {
	warm, window := w.probeWarmup, w.probeWindow
	probe := func(ratePPS float64) measure.ProbeResult {
		in := w.instantiate(seed, ratePPS, nil)
		gs := in.gen.stats()
		in.gen.start()
		in.eng.RunUntil(warm)
		sent0, delivered0, drops0 := gs.sent, gs.delivered, in.totalDrops()
		in.eng.RunUntil(warm + window)
		in.gen.stop()
		// In-flight frames drain; they were offered inside the window.
		in.eng.RunUntil(warm + window + 200*sim.Microsecond)
		return measure.ProbeResult{Offered: gs.sent - sent0,
			Delivered: gs.delivered - delivered0, Dropped: in.totalDrops() - drops0}
	}
	cfg := measure.SearchConfig{LoPPS: 1e4, HiPPS: 40e6, LossTolerance: 0, Iterations: sc.probeIters}
	rate, _, found := measure.LosslessRate(cfg, probe)
	if !found {
		return 0
	}
	return rate / 1e6
}
