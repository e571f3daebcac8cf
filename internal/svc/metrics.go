package svc

import (
	"fmt"
	"net/http"
	"strings"

	"ovsxdp/internal/api"
	"ovsxdp/internal/sim"
)

// handleMetrics renders the Prometheus text exposition format (0.0.4) by
// hand — the repo takes no dependencies — from one atomic snapshot of
// every datapath taken with the engine paused, so scraped counters can
// never tear against each other.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	type snap struct {
		name  string
		stats api.StatsView
		perf  api.PerfView
	}
	var snaps []snap
	var now sim.Time
	s.do(func() {
		now = s.ctl.Engine().Now()
		for _, t := range s.dps {
			snaps = append(snaps, snap{
				name:  t.Name,
				stats: api.NewStatsView(t.DP),
				perf:  api.NewPerfView(t.DP.PerfStats()),
			})
		}
	})

	var b strings.Builder
	metric := func(name, help, typ string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	metric("ovsxdp_virtual_time_seconds", "Virtual time of the simulation engine.", "gauge")
	fmt.Fprintf(&b, "ovsxdp_virtual_time_seconds %g\n", now.Seconds())

	counter := func(name, help string, value func(st api.StatsView) uint64) {
		metric(name, help, "counter")
		for _, sn := range snaps {
			fmt.Fprintf(&b, "%s{datapath=%q} %d\n", name, sn.name, value(sn.stats))
		}
	}
	gauge := func(name, help string, value func(st api.StatsView) int) {
		metric(name, help, "gauge")
		for _, sn := range snaps {
			fmt.Fprintf(&b, "%s{datapath=%q} %d\n", name, sn.name, value(sn.stats))
		}
	}

	counter("ovsxdp_lookups_hit_total", "Datapath flow-table lookup hits.",
		func(st api.StatsView) uint64 { return st.Hits })
	counter("ovsxdp_lookups_missed_total", "Lookups that upcalled to the slow path.",
		func(st api.StatsView) uint64 { return st.Missed })
	counter("ovsxdp_lookups_lost_total", "Packets dropped in the datapath.",
		func(st api.StatsView) uint64 { return st.Lost })
	counter("ovsxdp_slowpath_processed_total", "Slow-path upcalls processed.",
		func(st api.StatsView) uint64 { return st.Processed })
	counter("ovsxdp_upcall_queue_drops_total", "Packets refused at the bounded upcall queue.",
		func(st api.StatsView) uint64 { return st.UpcallQueueDrops })
	counter("ovsxdp_malformed_drops_total", "Slow-path parse failures.",
		func(st api.StatsView) uint64 { return st.MalformedDrops })
	gauge("ovsxdp_megaflows", "Installed megaflow entries.",
		func(st api.StatsView) int { return st.Flows })
	gauge("ovsxdp_ports", "Attached datapath ports.",
		func(st api.StatsView) int { return st.Ports })

	zero := func(o *api.OffloadStatsView) api.OffloadStatsView {
		if o == nil {
			return api.OffloadStatsView{}
		}
		return *o
	}
	counter("ovsxdp_offload_hits_total", "Packets forwarded by the NIC hardware flow table.",
		func(st api.StatsView) uint64 { return zero(st.Offload).Hits })
	counter("ovsxdp_offload_installs_total", "Hardware flow-table installs.",
		func(st api.StatsView) uint64 { return zero(st.Offload).Installs })
	counter("ovsxdp_offload_evictions_total", "Hardware flow-table evictions.",
		func(st api.StatsView) uint64 { return zero(st.Offload).Evictions })
	counter("ovsxdp_offload_uninstalls_total", "Hardware flow-table uninstalls.",
		func(st api.StatsView) uint64 { return zero(st.Offload).Uninstalls })
	gauge("ovsxdp_offload_live", "Hardware flow-table occupancy.",
		func(st api.StatsView) int { return zero(st.Offload).Live })

	zct := func(c *api.CtStatsView) api.CtStatsView {
		if c == nil {
			return api.CtStatsView{}
		}
		return *c
	}
	gauge("ovsxdp_ct_conns", "Live tracked connections.",
		func(st api.StatsView) int { return zct(st.Conntrack).Conns })
	counter("ovsxdp_ct_created_total", "Connections committed.",
		func(st api.StatsView) uint64 { return zct(st.Conntrack).Created })
	counter("ovsxdp_ct_expired_total", "Connections expired by timeout.",
		func(st api.StatsView) uint64 { return zct(st.Conntrack).Expired })
	counter("ovsxdp_ct_early_drops_total", "Embryonic connections shed under pressure.",
		func(st api.StatsView) uint64 { return zct(st.Conntrack).EarlyDrops })
	counter("ovsxdp_ct_evictions_total", "Connections LRU-evicted under pressure.",
		func(st api.StatsView) uint64 { return zct(st.Conntrack).Evictions })

	metric("ovsxdp_ct_zone_conns", "Live tracked connections per zone.", "gauge")
	for _, sn := range snaps {
		for _, z := range zct(sn.stats.Conntrack).PerZone {
			fmt.Fprintf(&b, "ovsxdp_ct_zone_conns{datapath=%q,zone=\"%d\"} %d\n", sn.name, z.Zone, z.Conns)
		}
	}

	metric("ovsxdp_thread_packets_total", "Packets processed per thread.", "counter")
	for _, sn := range snaps {
		for _, th := range sn.perf.Threads {
			fmt.Fprintf(&b, "ovsxdp_thread_packets_total{datapath=%q,thread=%q} %d\n", sn.name, th.Name, th.Packets)
		}
	}
	metric("ovsxdp_thread_stage_cycles_total", "Virtual cycles charged per thread and stage.", "counter")
	for _, sn := range snaps {
		for _, th := range sn.perf.Threads {
			for _, st := range th.Stages {
				fmt.Fprintf(&b, "ovsxdp_thread_stage_cycles_total{datapath=%q,thread=%q,stage=%q} %d\n",
					sn.name, th.Name, st.Stage, st.Cycles)
			}
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, b.String())
}
