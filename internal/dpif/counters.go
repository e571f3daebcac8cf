package dpif

import (
	"errors"
	"fmt"
)

// Counter is one number of Stats: Name is its Prometheus family without
// the "ovsxdp_" prefix (a counter's ends in "_total", a gauge's does not),
// and Get reads it off a snapshot.
type Counter struct {
	Name  string
	Help  string
	Gauge bool
	Get   func(*Stats) uint64
}

// Counters is the one declaration of every Stats number, in field order;
// /metrics renders one family per row (TestCountersCoverStats requires a
// row for every field).
var Counters = []Counter{
	{"lookups_hit_total", "Datapath flow-table lookup hits.", false, func(s *Stats) uint64 { return s.Hits }},
	{"lookups_missed_total", "Lookups that upcalled to the slow path.", false, func(s *Stats) uint64 { return s.Missed }},
	{"lookups_lost_total", "Packets dropped in the datapath.", false, func(s *Stats) uint64 { return s.Lost }},
	{"smc_hits_total", "Lookup hits resolved by the signature-match cache.", false, func(s *Stats) uint64 { return s.SMCHits }},
	{"upcall_queue_drops_total", "Packets refused at the bounded upcall queue.", false, func(s *Stats) uint64 { return s.UpcallQueueDrops }},
	{"malformed_drops_total", "Slow-path parse failures.", false, func(s *Stats) uint64 { return s.MalformedDrops }},
	{"slowpath_processed_total", "Slow-path upcalls processed.", false, func(s *Stats) uint64 { return s.Processed }},
	{"megaflows", "Installed megaflow entries.", true, func(s *Stats) uint64 { return uint64(s.Flows) }},
	{"ports", "Attached datapath ports.", true, func(s *Stats) uint64 { return uint64(s.Ports) }},

	{"offload_hits_total", "Packets forwarded by the NIC hardware flow table.", false, func(s *Stats) uint64 { return s.OffloadHits }},
	{"offload_installs_total", "Hardware flow-table installs.", false, func(s *Stats) uint64 { return s.OffloadInstalls }},
	{"offload_evictions_total", "Hardware flow-table evictions.", false, func(s *Stats) uint64 { return s.OffloadEvictions }},
	{"offload_uninstalls_total", "Hardware flow-table uninstalls.", false, func(s *Stats) uint64 { return s.OffloadUninstalls }},
	{"offload_refused_total", "Hardware flow-table installs refused by admission control.", false, func(s *Stats) uint64 { return s.OffloadRefused }},
	{"offload_readbacks_total", "Hardware counter readback sweeps.", false, func(s *Stats) uint64 { return s.OffloadReadbacks }},
	{"offload_live", "Hardware flow-table occupancy.", true, func(s *Stats) uint64 { return uint64(s.OffloadLive) }},

	{"ct_conns", "Live tracked connections.", true, func(s *Stats) uint64 { return uint64(s.CtConns) }},
	{"ct_created_total", "Connections committed.", false, func(s *Stats) uint64 { return s.CtCreated }},
	{"ct_expired_total", "Connections expired by timeout.", false, func(s *Stats) uint64 { return s.CtExpired }},
	{"ct_early_drops_total", "Embryonic connections shed under pressure.", false, func(s *Stats) uint64 { return s.CtEarlyDrops }},
	{"ct_evictions_total", "Connections LRU-evicted under pressure.", false, func(s *Stats) uint64 { return s.CtEvictions }},
	{"ct_table_full_total", "Commits refused at a zone's connection limit.", false, func(s *Stats) uint64 { return s.CtTableFull }},
	{"ct_nat_exhausted_total", "Commits refused with the NAT port range held.", false, func(s *Stats) uint64 { return s.CtNATExhausted }},
}

// Invariants checks the ledgers every snapshot satisfies at every virtual
// instant, on every provider:
//   - OffloadInstalls == OffloadEvictions + OffloadUninstalls + OffloadLive;
//   - CtCreated == CtExpired + CtEarlyDrops + CtEvictions + CtConns;
//   - SMCHits <= Hits.
//
// It returns nil, or one error naming each ledger that does not close.
func (s Stats) Invariants() error {
	var errs []error
	if s.OffloadInstalls != s.OffloadEvictions+s.OffloadUninstalls+uint64(s.OffloadLive) {
		errs = append(errs, fmt.Errorf("offload ledger: installs %d != evictions %d + uninstalls %d + live %d",
			s.OffloadInstalls, s.OffloadEvictions, s.OffloadUninstalls, s.OffloadLive))
	}
	if s.CtCreated != s.CtExpired+s.CtEarlyDrops+s.CtEvictions+uint64(s.CtConns) {
		errs = append(errs, fmt.Errorf("ct ledger: created %d != expired %d + early-drops %d + evicted %d + live %d",
			s.CtCreated, s.CtExpired, s.CtEarlyDrops, s.CtEvictions, s.CtConns))
	}
	if s.SMCHits > s.Hits {
		errs = append(errs, fmt.Errorf("smc hits %d exceed hits %d", s.SMCHits, s.Hits))
	}
	return errors.Join(errs...)
}
