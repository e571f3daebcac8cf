package main

// decl declares one metric: its name, unit and direction as BENCHMARK.json
// lists them, which clock it is measured on, and — for host-clock end-to-end
// metrics — the share of the baseline by which it may worsen before -compare
// calls it worse. Virtual-clock metrics are deterministic for a seed and
// compare exactly, so they carry no bound.
type decl struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
	// wall marks host-clock metrics (noisy: medians over windows); the
	// rest are virtual-clock numbers or exact counts.
	wall bool
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd is what a user of the simulator sees. fail_ratio, the eighth
// end-to-end number, is reported as failed/attempted in every result: it is
// expected to be exactly zero, so it cannot carry a relative bound.
var endToEnd = []decl{
	{name: "sim_mpps_wall", unit: "Mpkt/s", better: higher, bound: 0.25, wall: true},
	{name: "virt_ns_per_pkt", unit: "ns", better: lower},
	{name: "virt_lossless_mpps", unit: "Mpps", better: higher},
	{name: "virt_lat_p50_us", unit: "us", better: lower},
	{name: "virt_lat_p99_us", unit: "us", better: lower},
	{name: "live_heap_mb", unit: "MB", better: lower, bound: 0.10, wall: true},
	{name: "setup_s", unit: "s", better: lower, bound: 0.25, wall: true},
}

// driverEndToEnd reports whether d is in BENCHMARK.json's end_to_end list.
// The driver requires every end-to-end metric from every workload, never
// zero, and differing from run to run; the virtual-clock metrics are
// deterministic model outputs (some constant whatever the seed), so
// BENCHMARK.json carries them in per_layer and the driver gates the
// host-clock three. -compare treats all seven, and fail_ratio, as end to end.
func driverEndToEnd(d decl) bool { return d.wall }

// perLayer lists the single-layer metrics; module names are the layers.
var perLayer = []decl{
	// Counters read from public APIs; exact unless marked wall.
	{name: "sim.events_per_pkt", unit: "count", better: lower},
	{name: "sim.mev_per_wall_s", unit: "Mev/s", better: higher, wall: true},
	{name: "perf.rx_ns_per_pkt", unit: "ns", better: lower},
	{name: "perf.offload_ns_per_pkt", unit: "ns", better: lower},
	{name: "perf.emc_ns_per_pkt", unit: "ns", better: lower},
	{name: "perf.smc_ns_per_pkt", unit: "ns", better: lower},
	{name: "perf.dpcls_ns_per_pkt", unit: "ns", better: lower},
	{name: "perf.upcall_ns_per_pkt", unit: "ns", better: lower},
	{name: "perf.actions_ns_per_pkt", unit: "ns", better: lower},
	{name: "perf.idle_share", unit: "ratio", better: higher},
	{name: "emc.hit_ratio", unit: "ratio", better: higher},
	{name: "smc.hit_ratio", unit: "ratio", better: higher},
	{name: "dpcls.hit_ratio", unit: "ratio", better: higher},
	{name: "dpcls.probes_per_lookup", unit: "count", better: lower},
	{name: "dpcls.flows_live", unit: "count", better: lower},
	{name: "core.upcalls_per_kpkt", unit: "count", better: lower},
	{name: "core.upcall_p99_us", unit: "us", better: lower},
	{name: "core.rx_batch_mean", unit: "count", better: higher},
	{name: "core.upcall_queue_drops", unit: "count", better: lower},
	{name: "dpif.reval_checks_per_kpkt", unit: "count", better: lower},
	{name: "dpif.reval_evictions_per_kpkt", unit: "count", better: lower},
	{name: "dpif.reval_duty_pct", unit: "%", better: lower},
	{name: "conntrack.conns_live", unit: "count", better: lower},
	{name: "conntrack.created_per_kpkt", unit: "count", better: lower},
	{name: "conntrack.expired_per_kpkt", unit: "count", better: lower},
	{name: "conntrack.lookups_per_pkt", unit: "count", better: lower},
	{name: "nicsim.rx_drops", unit: "count", better: lower},
	{name: "afxdp.rx_drops", unit: "count", better: lower},
	{name: "afxdp.tx_drops", unit: "count", better: lower},
	{name: "kernelsim.softirq_ns_per_pkt", unit: "ns", better: lower},
	{name: "kernelsim.system_ns_per_pkt", unit: "ns", better: lower},
	{name: "go.allocs_per_kpkt", unit: "count", better: lower, wall: true},
	{name: "go.gc_cycles", unit: "count", better: lower, wall: true},
	{name: "go.gc_pause_ms", unit: "ms", better: lower, wall: true},
	{name: "go.peak_rss_mb", unit: "MB", better: lower, wall: true},

	// From here on only a -trace 1 run produces the metric.
	// Live boundary spans of the traced windows, as shares of the root.
	{name: "span.gen_emit_share", unit: "ratio", better: lower, wall: true},
	{name: "span.ingress_share", unit: "ratio", better: lower, wall: true},
	{name: "span.sink_share", unit: "ratio", better: lower, wall: true},
	{name: "span.engine_self_share", unit: "ratio", better: lower, wall: true},
	{name: "trace.overhead_pct", unit: "%", better: lower, wall: true},

	// Layer replay: host ns per call of each layer's public entry point.
	{name: "sim.timer_ns", unit: "ns", better: lower, wall: true},
	{name: "packet.pool_ns", unit: "ns", better: lower, wall: true},
	{name: "trafficgen.next_ns", unit: "ns", better: lower, wall: true},
	{name: "nicsim.receive_ns", unit: "ns", better: lower, wall: true},
	{name: "ebpf.run_ns", unit: "ns", better: lower, wall: true},
	{name: "afxdp.xsk_cycle_ns", unit: "ns", better: lower, wall: true},
	{name: "flow.extract_ns", unit: "ns", better: lower, wall: true},
	{name: "emc.lookup_ns", unit: "ns", better: lower, wall: true},
	{name: "emc.insert_ns", unit: "ns", better: lower, wall: true},
	{name: "smc.lookup_ns", unit: "ns", better: lower, wall: true},
	{name: "dpcls.lookup_ns", unit: "ns", better: lower, wall: true},
	{name: "dpcls.insert_remove_ns", unit: "ns", better: lower, wall: true},
	{name: "ofproto.translate_ns", unit: "ns", better: lower, wall: true},
	{name: "conntrack.process_ns", unit: "ns", better: lower, wall: true},
	{name: "dpif.execute_ns", unit: "ns", better: lower, wall: true},

	// Replay cost times operations per packet, over the untraced host
	// time per packet: each layer's estimated share of the simulator's
	// own run time.
	{name: "sim.est_share", unit: "ratio", better: lower, wall: true},
	{name: "nicsim.est_share", unit: "ratio", better: lower, wall: true},
	{name: "ebpf.est_share", unit: "ratio", better: lower, wall: true},
	{name: "afxdp.est_share", unit: "ratio", better: lower, wall: true},
	{name: "flow.est_share", unit: "ratio", better: lower, wall: true},
	{name: "emc.est_share", unit: "ratio", better: lower, wall: true},
	{name: "dpcls.est_share", unit: "ratio", better: lower, wall: true},
	{name: "ofproto.est_share", unit: "ratio", better: lower, wall: true},
	{name: "conntrack.est_share", unit: "ratio", better: lower, wall: true},
	{name: "trace.unattributed_share", unit: "ratio", better: lower, wall: true},
}

// metric is one measured value. Wall-clock metrics taken per window also
// carry the window quartiles and count their median was drawn from.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// result is one workload's outcome: what -out files hold and -compare reads.
type result struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Windows   int    `json:"windows"`
	Traced    bool   `json:"traced"`
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	// LatSamples is the number of latency samples behind the percentiles;
	// LatAboveP99 how many lie beyond the 99th.
	LatSamples  uint64            `json:"lat_samples"`
	LatAboveP99 uint64            `json:"lat_above_p99"`
	EndToEnd    map[string]metric `json:"end_to_end"`
	PerLayer    map[string]metric `json:"per_layer"`
	// Ledgers are the conservation checks, one line each; Violations the
	// ones that failed.
	Ledgers    []string `json:"ledgers"`
	Violations []string `json:"violations,omitempty"`
}

// setMetric stores v under name with its declared unit; with more than one
// sample in xs it stores their median and quartiles instead.
func setMetric(group map[string]metric, decls []decl, name string, v float64, xs []float64) {
	for _, d := range decls {
		if d.name == name {
			m := metric{Value: v, Unit: d.unit}
			if len(xs) > 0 {
				m.Value, m.N = median(xs), len(xs)
				m.Q1, m.Q3 = quartiles(xs)
			}
			group[name] = m
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}

func (r *result) e2e(name string, v float64)   { setMetric(r.EndToEnd, endToEnd, name, v, nil) }
func (r *result) layer(name string, v float64) { setMetric(r.PerLayer, perLayer, name, v, nil) }

// e2eMedian and layerMedian record a host metric sampled several times.
func (r *result) e2eMedian(name string, xs []float64)   { setMetric(r.EndToEnd, endToEnd, name, 0, xs) }
func (r *result) layerMedian(name string, xs []float64) { setMetric(r.PerLayer, perLayer, name, 0, xs) }
