package svc

import (
	"fmt"
	"net/http"
	"strings"

	"ovsxdp/internal/api"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/sim"
)

// handleMetrics renders the Prometheus text exposition format (0.0.4) by
// hand — the repo takes no dependencies — from one atomic snapshot of
// every datapath taken with the engine paused, so scraped counters can
// never tear against each other. Every dpif.Stats number is one row of
// dpif.Counters and one family here.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	type snap struct {
		name  string
		stats dpif.Stats
		perf  api.PerfView
	}
	var snaps []snap
	var now sim.Time
	s.do(func() {
		now = s.ctl.Engine().Now()
		for _, t := range s.dps {
			snaps = append(snaps, snap{
				name:  t.Name,
				stats: t.DP.Stats(),
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

	for _, c := range dpif.Counters {
		name, typ := "ovsxdp_"+c.Name, "counter"
		if c.Gauge {
			typ = "gauge"
		}
		metric(name, c.Help, typ)
		for _, sn := range snaps {
			fmt.Fprintf(&b, "%s{datapath=%q} %d\n", name, sn.name, c.Get(&sn.stats))
		}
	}

	metric("ovsxdp_ct_zone_conns", "Live tracked connections per zone.", "gauge")
	for _, sn := range snaps {
		for _, z := range sn.stats.ConnsPerZone {
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
