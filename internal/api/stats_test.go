package api

import (
	"testing"

	"ovsxdp/internal/dpif"
	"ovsxdp/internal/perf"
)

// TestFormatDpctlSections pins the `ovs-dpctl show` lines no ovsctl golden
// prints — the offload and conntrack sections with two zones — byte for
// byte, and the conditions that show them: either counter of a section
// being non-zero is enough. The cache hierarchy splits lookups, not
// packets: a packet that recirculates is looked up once per pass.
func TestFormatDpctlSections(t *testing.T) {
	full := dpif.Stats{
		Hits: 90, Missed: 10, Lost: 2, SMCHits: 5, UpcallQueueDrops: 1, MalformedDrops: 3,
		Processed: 106, Flows: 4, Ports: 3,
		OffloadHits: 40, OffloadInstalls: 6, OffloadEvictions: 2, OffloadUninstalls: 1,
		OffloadRefused: 7, OffloadReadbacks: 8, OffloadLive: 3,
		CtConns: 5, CtCreated: 12, CtExpired: 4, CtEarlyDrops: 1, CtEvictions: 2,
		CtTableFull: 9, CtNATExhausted: 11,
		ConnsPerZone: []dpif.CtZoneConns{{Zone: 3, Conns: 2}, {Zone: 9, Conns: 3}},
	}
	ths := []perf.ThreadStats{{Name: "pmd0", Stats: &perf.Stats{}}}
	ths[0].Packets, ths[0].EMCHits, ths[0].SMCHits, ths[0].MegaflowHits, ths[0].Upcalls = 100, 60, 5, 25, 10
	// 100 packets through ct(commit) and one recirculation: two passes
	// each, the first packet's two upcalls and the rest EMC hits.
	recirc := []perf.ThreadStats{{Name: "pmd0", Stats: &perf.Stats{Packets: 100, EMCHits: 198, Upcalls: 2}}}
	for _, c := range []struct {
		name string
		st   dpif.Stats
		ths  []perf.ThreadStats
		want string
	}{
		{"every section", full, ths, "netdev@br-int:\n" +
			"  lookups: hit:90 missed:10 lost:2\n" +
			"  slow path: processed:106 queue-drops:1 malformed:3\n" +
			"  cache hierarchy: emc:60.0% smc:5.0% megaflow:25.0% upcall:10.0%\n" +
			"  flows: 4\n" +
			"  offload: hw-hits:40 installed:6 evicted:2 uninstalled:1 live:3 refused:7 readbacks:8\n" +
			"  conntrack: conns:5 created:12 expired:4 early-drop:1 evicted:2 table-full:9 nat-exhausted:11\n" +
			"    zone 3: 2 conns\n" +
			"    zone 9: 3 conns\n" +
			"  ports: 3\n"},
		{"recirculation", dpif.Stats{Hits: 198, Missed: 2, Processed: 200, Flows: 2, Ports: 2}, recirc, "netdev@br-int:\n" +
			"  lookups: hit:198 missed:2 lost:0\n" +
			"  slow path: processed:200 queue-drops:0 malformed:0\n" +
			"  cache hierarchy: emc:99.0% smc:0.0% megaflow:0.0% upcall:1.0%\n" +
			"  flows: 2\n" +
			"  ports: 2\n"},
		{"offload hits only", dpif.Stats{Hits: 4, OffloadHits: 4, Ports: 2}, nil, "netdev@br-int:\n" +
			"  lookups: hit:4 missed:0 lost:0\n" +
			"  slow path: processed:0 queue-drops:0 malformed:0\n" +
			"  flows: 0\n" +
			"  offload: hw-hits:4 installed:0 evicted:0 uninstalled:0 live:0 refused:0 readbacks:0\n" +
			"  ports: 2\n"},
		{"ct conns only", dpif.Stats{Hits: 4, CtConns: 1, Ports: 2}, nil, "netdev@br-int:\n" +
			"  lookups: hit:4 missed:0 lost:0\n" +
			"  slow path: processed:0 queue-drops:0 malformed:0\n" +
			"  flows: 0\n" +
			"  conntrack: conns:1 created:0 expired:0 early-drop:0 evicted:0 table-full:0 nat-exhausted:0\n" +
			"  ports: 2\n"},
		{"idle", dpif.Stats{Ports: 2}, nil, "netdev@br-int:\n" +
			"  lookups: hit:0 missed:0 lost:0\n" +
			"  slow path: processed:0 queue-drops:0 malformed:0\n" +
			"  flows: 0\n" +
			"  ports: 2\n"},
	} {
		if got := NewStatsView(fakeDP{st: c.st, ths: c.ths}).FormatDpctl("netdev@br-int"); got != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}
