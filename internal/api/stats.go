package api

import (
	"fmt"
	"strings"

	"ovsxdp/internal/dpif"
)

// CacheHierarchy sums the per-thread resolution counters: how many lookups
// (passes: a recirculated packet counts once per pass) each caching level
// resolved. Their shares of the lookups are derived at render time so JSON
// consumers get exact integers.
type CacheHierarchy struct {
	Packets      uint64 `json:"packets"`
	EMCHits      uint64 `json:"emc_hits"`
	SMCHits      uint64 `json:"smc_hits"`
	MegaflowHits uint64 `json:"megaflow_hits"`
	Upcalls      uint64 `json:"upcalls"`
}

// StatsView is the typed view of one datapath's unified counters — what
// `ovsctl dpctl-stats` prints and GET /v1/datapaths/{name}/stats returns:
// the provider's dpif.Stats, flat under its own JSON names, plus the
// cache-hierarchy sums. It owns every byte it holds: NewStatsView clones
// the provider's Stats (including the ConnsPerZone slice), so mutating a
// view never reaches provider state.
type StatsView struct {
	Type string `json:"type"`
	dpif.Stats
	Cache CacheHierarchy `json:"cache"`
}

// NewStatsView builds the view from a datapath's counters. The per-thread
// counters feed the cache-hierarchy split.
func NewStatsView(d dpif.Dpif) StatsView {
	v := StatsView{Type: d.Type(), Stats: d.Stats().Clone()}
	for _, th := range d.PerfStats() {
		v.Cache.EMCHits += th.EMCHits
		v.Cache.SMCHits += th.SMCHits
		v.Cache.MegaflowHits += th.MegaflowHits
		v.Cache.Upcalls += th.Upcalls
		v.Cache.Packets += th.Packets
	}
	return v
}

// LookupLines renders the lookups and slow-path lines of `ovs-dpctl show`,
// which FormatDpctl and `ovsctl fault-demo` both print.
func LookupLines(st *dpif.Stats) string {
	return fmt.Sprintf("  lookups: hit:%d missed:%d lost:%d\n  slow path: processed:%d queue-drops:%d malformed:%d\n",
		st.Hits, st.Missed, st.Lost, st.Processed, st.UpcallQueueDrops, st.MalformedDrops)
}

// FormatDpctl renders the `ovs-dpctl show` analog exactly as ovsctl has
// always printed it, under the given "type@bridge" label. The offload and
// conntrack sections appear only once their subsystems have seen use.
func (v StatsView) FormatDpctl(label string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", label)
	b.WriteString(LookupLines(&v.Stats))
	c := &v.Cache
	if lookups := c.EMCHits + c.SMCHits + c.MegaflowHits + c.Upcalls; lookups > 0 {
		pct := func(n uint64) float64 { return 100 * float64(n) / float64(lookups) }
		fmt.Fprintf(&b, "  cache hierarchy: emc:%.1f%% smc:%.1f%% megaflow:%.1f%% upcall:%.1f%%\n",
			pct(c.EMCHits), pct(c.SMCHits), pct(c.MegaflowHits), pct(c.Upcalls))
	}
	fmt.Fprintf(&b, "  flows: %d\n", v.Flows)
	if v.OffloadInstalls > 0 || v.OffloadHits > 0 {
		fmt.Fprintf(&b, "  offload: hw-hits:%d installed:%d evicted:%d uninstalled:%d live:%d refused:%d readbacks:%d\n",
			v.OffloadHits, v.OffloadInstalls, v.OffloadEvictions, v.OffloadUninstalls, v.OffloadLive, v.OffloadRefused, v.OffloadReadbacks)
	}
	if v.CtCreated > 0 || v.CtConns > 0 {
		fmt.Fprintf(&b, "  conntrack: conns:%d created:%d expired:%d early-drop:%d evicted:%d table-full:%d nat-exhausted:%d\n",
			v.CtConns, v.CtCreated, v.CtExpired, v.CtEarlyDrops, v.CtEvictions, v.CtTableFull, v.CtNATExhausted)
		for _, z := range v.ConnsPerZone {
			fmt.Fprintf(&b, "    zone %d: %d conns\n", z.Zone, z.Conns)
		}
	}
	fmt.Fprintf(&b, "  ports: %d\n", v.Ports)
	return b.String()
}
