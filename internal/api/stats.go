package api

import (
	"fmt"
	"strings"

	"ovsxdp/internal/dpif"
)

// CacheHierarchy sums the per-thread resolution counters: how many packets
// each caching level resolved. Percentages are derived at render time so
// JSON consumers get exact integers.
type CacheHierarchy struct {
	Packets      uint64 `json:"packets"`
	EMCHits      uint64 `json:"emc_hits"`
	SMCHits      uint64 `json:"smc_hits"`
	MegaflowHits uint64 `json:"megaflow_hits"`
	Upcalls      uint64 `json:"upcalls"`
}

// OffloadStatsView is the hardware flow-offload block of a stats view. Its
// conservation ledger (Installs == Evictions + Uninstalls + Live) holds at
// every snapshot.
type OffloadStatsView struct {
	Hits       uint64 `json:"hits"`
	Installs   uint64 `json:"installs"`
	Evictions  uint64 `json:"evictions"`
	Uninstalls uint64 `json:"uninstalls"`
	Refused    uint64 `json:"refused"`
	Readbacks  uint64 `json:"readbacks"`
	Live       int    `json:"live"`
}

// ZoneConns is one zone's live-connection count.
type ZoneConns struct {
	Zone  uint16 `json:"zone"`
	Conns int    `json:"conns"`
}

// CtStatsView is the conntrack block of a stats view. Its conservation
// ledger (Created == Conns + Expired + EarlyDrops + Evictions) holds at
// every snapshot.
type CtStatsView struct {
	Conns        int         `json:"conns"`
	Created      uint64      `json:"created"`
	Expired      uint64      `json:"expired"`
	EarlyDrops   uint64      `json:"early_drops"`
	Evictions    uint64      `json:"evictions"`
	TableFull    uint64      `json:"table_full"`
	NATExhausted uint64      `json:"nat_exhausted"`
	PerZone      []ZoneConns `json:"per_zone,omitempty"`
}

// StatsView is the typed view of one datapath's unified counters — what
// `ovsctl dpctl-stats` prints and GET /v1/datapaths/{name}/stats returns.
// It owns every byte it holds: NewStatsView deep-copies the provider's
// Stats (including the ConnsPerZone slice), so mutating a view never
// reaches provider state.
type StatsView struct {
	Type             string            `json:"type"`
	Hits             uint64            `json:"hits"`
	Missed           uint64            `json:"missed"`
	Lost             uint64            `json:"lost"`
	SMCHits          uint64            `json:"smc_hits"`
	Processed        uint64            `json:"processed"`
	UpcallQueueDrops uint64            `json:"upcall_queue_drops"`
	MalformedDrops   uint64            `json:"malformed_drops"`
	Flows            int               `json:"flows"`
	Ports            int               `json:"ports"`
	Cache            CacheHierarchy    `json:"cache"`
	Offload          *OffloadStatsView `json:"offload,omitempty"`
	Conntrack        *CtStatsView      `json:"conntrack,omitempty"`
}

// NewStatsView builds the view from a datapath's counters. The offload and
// conntrack blocks appear only once their subsystems have seen use,
// mirroring the conditional sections of `ovs-dpctl show` output. The
// per-thread counters feed the cache-hierarchy split.
func NewStatsView(d dpif.Dpif) StatsView {
	// Cloned, then deep-copied again below, so neither an encoder nor a
	// client can ever alias provider state.
	st := d.Stats().Clone()
	v := StatsView{
		Type:             d.Type(),
		Hits:             st.Hits,
		Missed:           st.Missed,
		Lost:             st.Lost,
		SMCHits:          st.SMCHits,
		Processed:        st.Processed,
		UpcallQueueDrops: st.UpcallQueueDrops,
		MalformedDrops:   st.MalformedDrops,
		Flows:            st.Flows,
		Ports:            st.Ports,
	}
	for _, th := range d.PerfStats() {
		v.Cache.EMCHits += th.EMCHits
		v.Cache.SMCHits += th.SMCHits
		v.Cache.MegaflowHits += th.MegaflowHits
		v.Cache.Upcalls += th.Upcalls
		v.Cache.Packets += th.Packets
	}
	if st.OffloadInstalls > 0 || st.OffloadHits > 0 {
		v.Offload = &OffloadStatsView{
			Hits:       st.OffloadHits,
			Installs:   st.OffloadInstalls,
			Evictions:  st.OffloadEvictions,
			Uninstalls: st.OffloadUninstalls,
			Refused:    st.OffloadRefused,
			Readbacks:  st.OffloadReadbacks,
			Live:       st.OffloadLive,
		}
	}
	if st.CtCreated > 0 || st.CtConns > 0 {
		ct := &CtStatsView{
			Conns:        st.CtConns,
			Created:      st.CtCreated,
			Expired:      st.CtExpired,
			EarlyDrops:   st.CtEarlyDrops,
			Evictions:    st.CtEvictions,
			TableFull:    st.CtTableFull,
			NATExhausted: st.CtNATExhausted,
		}
		// Copy, never alias: the provider's slice is the one place a Stats
		// value reaches shared state (see dpif.Stats.Clone).
		for _, z := range st.ConnsPerZone {
			ct.PerZone = append(ct.PerZone, ZoneConns{Zone: z.Zone, Conns: z.Conns})
		}
		v.Conntrack = ct
	}
	return v
}

// FormatDpctl renders the `ovs-dpctl show` analog exactly as ovsctl has
// always printed it, under the given "type@bridge" label.
func (v StatsView) FormatDpctl(label string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", label)
	fmt.Fprintf(&b, "  lookups: hit:%d missed:%d lost:%d\n", v.Hits, v.Missed, v.Lost)
	fmt.Fprintf(&b, "  slow path: processed:%d queue-drops:%d malformed:%d\n",
		v.Processed, v.UpcallQueueDrops, v.MalformedDrops)
	if v.Cache.Packets > 0 {
		pct := func(n uint64) float64 { return 100 * float64(n) / float64(v.Cache.Packets) }
		fmt.Fprintf(&b, "  cache hierarchy: emc:%.1f%% smc:%.1f%% megaflow:%.1f%% upcall:%.1f%%\n",
			pct(v.Cache.EMCHits), pct(v.Cache.SMCHits), pct(v.Cache.MegaflowHits), pct(v.Cache.Upcalls))
	}
	fmt.Fprintf(&b, "  flows: %d\n", v.Flows)
	if o := v.Offload; o != nil {
		fmt.Fprintf(&b, "  offload: hw-hits:%d installed:%d evicted:%d uninstalled:%d live:%d refused:%d readbacks:%d\n",
			o.Hits, o.Installs, o.Evictions, o.Uninstalls, o.Live, o.Refused, o.Readbacks)
	}
	if ct := v.Conntrack; ct != nil {
		fmt.Fprintf(&b, "  conntrack: conns:%d created:%d expired:%d early-drop:%d evicted:%d table-full:%d nat-exhausted:%d\n",
			ct.Conns, ct.Created, ct.Expired, ct.EarlyDrops,
			ct.Evictions, ct.TableFull, ct.NATExhausted)
		for _, z := range ct.PerZone {
			fmt.Fprintf(&b, "    zone %d: %d conns\n", z.Zone, z.Conns)
		}
	}
	fmt.Fprintf(&b, "  ports: %d\n", v.Ports)
	return b.String()
}
