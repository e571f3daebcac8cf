// Package dpif is the datapath-provider seam: the analog of OVS's dpif
// layer, through which ovs-vswitchd drives every datapath implementation
// (dpif-netdev for userspace/AF_XDP, dpif-netlink for the kernel module and
// its eBPF re-implementation) without knowing which one it is talking to.
// This seam is what let the paper swap datapaths under an unchanged control
// plane (Tables 2/4, Figures 8-12); here it lets vswitchd, the experiment
// testbeds, and ovsctl select a datapath by registry name.
//
// Providers register themselves under a type name ("netdev", "netlink",
// "ebpf") and are opened via Open. The interface covers port management,
// direct flow manipulation (put/del/dump/flush), packet execution, upcall
// registration, and the hit/missed/lost/flows statistics `ovs-dpctl show`
// reports.
package dpif

import (
	"ovsxdp/internal/conntrack"
	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/perf"
)

// Port is the dpif view of a datapath port: enough identity for the
// control plane to attach, detach, and name it. Concrete providers accept
// richer implementations (core.Port for netdev, TxPort everywhere).
type Port interface {
	ID() uint32
	Name() string
}

// TxPort is a provider-independent output-only port: packets the datapath
// sends to it are handed to Deliver. The netlink provider uses it as its
// native port type (the kernel datapath's output vports are transmit
// functions); the netdev provider wraps it into a core.Port. It is what
// testbeds and the conformance suite use to observe delivery identically
// across providers.
type TxPort struct {
	PortID   uint32
	PortName string
	Deliver  func(*packet.Packet)
}

// ID implements Port.
func (p TxPort) ID() uint32 { return p.PortID }

// Name implements Port.
func (p TxPort) Name() string { return p.PortName }

// UpcallFunc translates a missed flow key into a megaflow. Its signature
// matches ofproto's (*Pipeline).Translate, so the pipeline's translator can
// be registered directly; wrappers can count or veto upcalls.
type UpcallFunc func(key flow.Key) (ofproto.Megaflow, error)

// Flow is one installed datapath megaflow as FlowDump returns it: the
// classifier shard holding it (a per-PMD classifier for netdev, the single
// kernel table for netlink), so FlowDel can target the right shard, and its
// ref there. Entry() reads the live megaflow, whose hit counter updates in
// place, and is nil once the flow is removed, however that happened.
type Flow = dpcls.Handle

// Stats is the unified datapath statistics block, the numbers `ovs-dpctl
// show` prints: cache hits, misses that upcalled to the slow path, packets
// lost (dropped) in the datapath, and the installed megaflow count. The
// three drop classes are disjoint: Lost is datapath drops (policy, dead
// port, meter), UpcallQueueDrops is slow-path admission refusals, and
// MalformedDrops is parse failures; with Processed counting fast-path
// passes, Processed == delivered + Lost + UpcallQueueDrops +
// MalformedDrops when no recirculation is in play. Each number has one
// row in Counters (its /metrics family); the JSON tags are its names in
// the control API's stats body.
type Stats struct {
	Hits   uint64 `json:"hits"`
	Missed uint64 `json:"missed"`
	Lost   uint64 `json:"lost"`
	// SMCHits is the signature-match-cache share of Hits. It is always
	// zero for the kernel-path providers (no SMC) and for netdev with the
	// SMC disabled, so cross-provider comparisons normalize it away.
	SMCHits uint64 `json:"smc_hits"`
	// UpcallQueueDrops counts packets refused because the bounded upcall
	// queue was full — the kernel's ENOBUFS on the per-port netlink
	// socket, and its netdev analog.
	UpcallQueueDrops uint64 `json:"upcall_queue_drops"`
	// MalformedDrops counts slow-path parse failures (the flow
	// extractor's EINVAL), split from policy drops.
	MalformedDrops uint64 `json:"malformed_drops"`
	// Processed counts fast-path packet passes, including recirculation.
	Processed uint64 `json:"processed"`
	Flows     int    `json:"flows"`
	// Ports is the number of attached ports.
	Ports int `json:"ports"`

	// Hardware-offload counters (other_config:hw-offload); all stay zero
	// on the kernel-path providers, whose simulated NICs expose no flow
	// table, and on netdev with offload off. Invariants states their
	// conservation ledger.
	OffloadHits       uint64 `json:"offload_hits"`
	OffloadInstalls   uint64 `json:"offload_installs"`
	OffloadEvictions  uint64 `json:"offload_evictions"`
	OffloadUninstalls uint64 `json:"offload_uninstalls"`
	OffloadRefused    uint64 `json:"offload_refused"`
	OffloadReadbacks  uint64 `json:"offload_readbacks"`
	OffloadLive       int    `json:"offload_live"`

	// Conntrack counters, straight from the provider's tracker; all stay
	// zero while no flow carries a ct() action. CtTableFull counts
	// commits refused at a zone's hard limit, CtEarlyDrops embryonic
	// connections shed in the soft band, CtEvictions LRU emergency
	// evictions (including NAT-port-exhaustion evictions), and
	// CtNATExhausted commits refused with a NAT port range fully held
	// by established connections.
	CtConns        int    `json:"ct_conns"`
	CtCreated      uint64 `json:"ct_created"`
	CtExpired      uint64 `json:"ct_expired"`
	CtEarlyDrops   uint64 `json:"ct_early_drops"`
	CtEvictions    uint64 `json:"ct_evictions"`
	CtTableFull    uint64 `json:"ct_table_full"`
	CtNATExhausted uint64 `json:"ct_nat_exhausted"`
	// ConnsPerZone lists live connections per nonempty zone, sorted by
	// zone (nil when the tracker is idle). Note the slice makes Stats
	// non-comparable: compare snapshots with reflect.DeepEqual.
	//
	// It also makes Stats a shallow-copy hazard: assigning a Stats value
	// copies the slice header, so two copies share one backing array and a
	// mutation through either is visible in both. Every Stats() provider
	// returns a freshly built slice (never the tracker's own storage), and
	// anything that retains or re-exports a snapshot — the api view layer,
	// the HTTP control plane — must go through Clone.
	ConnsPerZone []CtZoneConns `json:"ct_per_zone,omitempty"`
}

// Clone returns a deep copy of the snapshot: the ConnsPerZone backing
// array is duplicated, so mutating the clone (or the original) can never
// reach the other. Use it whenever a Stats value is retained past the
// call that produced it or handed to code outside this package's control.
func (s Stats) Clone() Stats {
	c := s
	if s.ConnsPerZone != nil {
		c.ConnsPerZone = make([]CtZoneConns, len(s.ConnsPerZone))
		copy(c.ConnsPerZone, s.ConnsPerZone)
	}
	return c
}

// CtZoneConns is one zone's live-connection count in Stats.
type CtZoneConns struct {
	Zone  uint16 `json:"zone"`
	Conns int    `json:"conns"`
}

// addThreads sums the threads' tallies into Hits, SMCHits, OffloadHits and
// UpcallQueueDrops, the one count of each, so the datapath-wide and
// per-thread views cannot disagree.
func (s *Stats) addThreads(ths []perf.ThreadStats) {
	for _, th := range ths {
		s.Hits += th.EMCHits + th.SMCHits + th.MegaflowHits
		s.SMCHits += th.SMCHits
		s.OffloadHits += th.OffloadHits
		s.UpcallQueueDrops += th.UpcallQueueDrops
	}
}

// fillCtStats copies the tracker's counters into a Stats snapshot; shared
// by every provider so the conntrack surface cannot drift between them.
func fillCtStats(s *Stats, t *conntrack.Table) {
	c := t.Counters()
	s.CtConns = c.Conns
	s.CtCreated = c.Created
	s.CtExpired = c.Expired
	s.CtEarlyDrops = c.EarlyDrops
	s.CtEvictions = c.Evicted
	s.CtTableFull = c.TableFull
	s.CtNATExhausted = c.NATExhausted
	for _, z := range t.ConnsPerZone(nil) {
		s.ConnsPerZone = append(s.ConnsPerZone, CtZoneConns{Zone: z.Zone, Conns: z.Conns})
	}
}

// Dpif is one open datapath. All providers implement identical observable
// semantics (the conformance suite in this package enforces it); they
// differ only in where the work happens and what it costs.
type Dpif interface {
	// Type returns the registry type name ("netdev", "netlink", "ebpf").
	Type() string

	// PortAdd attaches a port. Providers reject port kinds they cannot
	// drive (the netlink provider needs a transmit function; netdev needs
	// a core.Port or a TxPort to wrap).
	PortAdd(p Port) error
	// PortDel detaches the port with the given datapath port number.
	PortDel(id uint32) error

	// FlowPut installs a datapath flow directly, bypassing the upcall
	// path (ovs-dpctl add-flow). Providers apply their own installation
	// discipline: the ebpf flavor narrows every mask to exact-match.
	FlowPut(key flow.Key, mask flow.Mask, actions []ofproto.DPAction)
	// FlowDel removes a previously dumped flow, reporting whether it was
	// still installed.
	FlowDel(f Flow) bool
	// FlowDump snapshots the installed megaflows across all classifier
	// shards.
	FlowDump() []Flow
	// FlowFlush drops every installed flow: a daemon restart. A rule
	// change revalidates the installed flows instead (Revalidate).
	FlowFlush()
	// SetFlowHook registers (or, with nil, clears) a notification called
	// for every freshly installed datapath flow, however it was installed
	// (upcall, FlowPut, negative flow). Replacements that update an
	// existing flow in place do not re-fire it. This is the seam the
	// incremental revalidator hangs per-flow expiry timers on, instead of
	// discovering new flows by full-table dumps.
	SetFlowHook(fn func(Flow))

	// Execute runs one packet through the datapath fast path, exactly as
	// if it had arrived on p.InPort (ovs-dpctl execute; also the
	// conformance suite's packet driver).
	Execute(p *packet.Packet)

	// SetUpcall registers the slow-path handler consulted on flow-table
	// misses. When never called, the provider translates against the
	// pipeline it was opened with.
	SetUpcall(fn UpcallFunc)

	// SetConfig applies ovs-vsctl-style other_config key/value pairs with
	// typed parsing: unknown keys and malformed values are errors and
	// leave the configuration unchanged. Keys that only reach the
	// userspace datapath (pmd-*, emc-*, smc-*, ...) are accepted but
	// inert on the kernel-path providers, as in OVS. Keys are applied in
	// sorted order, so a SetConfig call is deterministic.
	SetConfig(kv map[string]string) error
	// GetConfig reports the full configuration: every supported key with
	// its current (or default) value.
	GetConfig() map[string]string

	// Stats reports the unified datapath counters.
	Stats() Stats

	// PerfStats returns one performance-counter block per packet-processing
	// thread: per-PMD for netdev, the softirq context for netlink/ebpf
	// (`ovs-appctl dpif-netdev/pmd-perf-show`).
	PerfStats() []perf.ThreadStats

	// EnableTrace arms packet-lifecycle tracing on every processing thread,
	// keeping the last n lifecycles per thread; n <= 0 disables it.
	EnableTrace(n int)
}
