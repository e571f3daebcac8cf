package core

import (
	"ovsxdp/internal/conntrack"
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/fastpath"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/perf"
	"ovsxdp/internal/sim"
)

// Caps describes a port's transmit-side hardware offloads. The AF_XDP gap
// — no checksum or TSO offload yet (Table 2 O5, Section 5.5) — is the
// difference between AFXDPCaps and the others.
type Caps struct {
	TxCsum bool
	TSO    bool
}

// allOffloads is what a port has whose far side does the work: NIC hardware
// behind DPDK, a virtio or kernel peer behind a link.
var allOffloads = Caps{TxCsum: true, TSO: true}

// PortCaps returns the offload capabilities of a port; the datapath
// consults this before transmitting packets that still carry CsumPartial or
// TSO state.
func PortCaps(p Port) Caps {
	switch p := p.(type) {
	case *AFXDPPort:
		// AF_XDP cannot reach the NIC's offload engines (Section 3.2
		// O5: "AF_XDP does not yet [support offloads]").
		return Caps{}
	case *LinkPort:
		return p.caps
	default:
		// DPDK programs hardware offloads.
		return allOffloads
	}
}

// Options are the paper's construction-time ablations, which no other_config
// key names; every runtime tunable is a key (dpif.SetConfig). The zero
// Options is the fully optimized datapath: O1..O4, with O5's checksum
// offload not assumed, as in the paper.
type Options struct {
	// MetadataMmap disables O4: without dp_packet metadata in a
	// preallocated contiguous array, every packet pays the
	// mmap-allocation cost.
	MetadataMmap bool
	// AssumeCsumOffload is O5's estimate: transmit a fixed checksum
	// value instead of computing one in software.
	AssumeCsumOffload bool
	// AssumeTSO models the expected AF_XDP TSO support (Figure 8's
	// "checksum and TSO" bars): a TSO super-frame leaves a port without
	// TSO whole, neither split by packet.(*Packet).Segment nor charged
	// its per-segment copies.
	AssumeTSO bool
	// ContentionCentis is the multi-PMD contention coefficient (tenths;
	// see costmodel.UserContentionMilli). Zero disables contention
	// scaling; the experiment beds set the per-datapath calibrated
	// values for Figure 12.
	ContentionCentis int
}

// Datapath is the shared state of the userspace datapath: ports, the
// ofproto pipeline upcalls translate against, conntrack, tunneling, and
// counters. Per-thread state (EMC, megaflow classifier) lives in each PMD,
// which runs the one fastpath pass over the netdev cost row.
type Datapath struct {
	fastpath.Datapath
	Opts Options

	ports map[uint32]Port
	pmds  []*PMD
	// activePMDs counts PMD threads that have processed traffic, for the
	// contention model.
	activePMDs int
	// traceDepth, when positive, arms packet-lifecycle tracing with a ring
	// of that many records on every PMD (existing and future).
	traceDepth int

	// flowHook, when set, is called for every freshly installed megaflow
	// on any PMD (upcall installs, FlowPut, negative flows) — the
	// notification the incremental revalidator registers expiry timers
	// from. In-place replacements do not re-fire it.
	flowHook func(dpcls.Handle)

	// assign is the rxq-to-PMD assignment layer (policies, auto-LB, XPS);
	// created lazily so the zero datapath keeps working.
	assign *assigner

	// offload is the hardware flow-offload engine; nil until hw-offload is
	// first enabled, so the default datapath carries no offload state.
	// offloadOpts is the last ConfigureOffload's settings, kept whether or
	// not the engine exists.
	offload     *offloadEngine
	offloadOpts OffloadOptions

	// emcOff and smcOn are the cache toggles (emc-enable, smc-enable):
	// the EMC is on and the SMC off until configured otherwise.
	emcOff, smcOn bool
}

// NewDatapath builds a datapath over a pipeline.
func NewDatapath(eng *sim.Engine, pl *ofproto.Pipeline, opts Options) *Datapath {
	return &Datapath{
		Datapath: fastpath.Datapath{Eng: eng, Pipeline: pl, Ct: conntrack.NewTable(eng),
			Row: fastpath.Row{Cat: sim.User,
				Output: costmodel.ExecActionOutput, Rewrite: costmodel.ExecActionSimple}},
		Opts:  opts,
		ports: make(map[uint32]Port),
	}
}

// AddPort registers a port.
func (d *Datapath) AddPort(p Port) { d.ports[p.ID()] = p }

// Port returns a registered port or nil.
func (d *Datapath) Port(id uint32) Port { return d.ports[id] }

// RemovePort detaches a port: its receive queues leave their threads' poll
// lists and the assignment map, so nothing arriving on it is polled again.
func (d *Datapath) RemovePort(id uint32) {
	p, ok := d.ports[id]
	if !ok {
		return
	}
	for q := 0; q < p.NumRxQueues(); q++ {
		// The error is "not assigned": a queue no thread polls (a
		// transmit-only port) has nothing to drop.
		_ = d.UnassignRxq(p, q)
	}
	delete(d.ports, id)
}

// Ports returns the number of attached ports.
func (d *Datapath) Ports() int { return len(d.ports) }

// ConfigureEMC enables or disables the exact-match cache from the next
// packet on (emc-enable; off is the cache the kernel maintainers rejected).
func (d *Datapath) ConfigureEMC(on bool) { d.emcOff = !on }

// EMCEnabled reports whether the exact-match cache is consulted.
func (d *Datapath) EMCEnabled() bool { return !d.emcOff }

// ConfigureSMC enables or disables the signature match cache at runtime,
// allocating or releasing the per-PMD tables (smc-enable): 4-byte entries
// covering two orders of magnitude more flows than the EMC at a slightly
// higher hit cost.
func (d *Datapath) ConfigureSMC(on bool) {
	d.smcOn = on
	for _, m := range d.pmds {
		m.reconfigureSMC()
	}
}

// SMCEnabled reports whether the signature match cache is consulted.
func (d *Datapath) SMCEnabled() bool { return d.smcOn }

// FlushFlows clears every PMD's caches (revalidation after rule changes)
// and, with hw-offload on, the NIC flow table in the same pass — a flushed
// hardware rule must never keep forwarding with the dropped actions.
func (d *Datapath) FlushFlows() {
	if d.offload != nil {
		d.offload.flushAll()
	}
	for _, m := range d.pmds {
		m.emc.Flush()
		if m.smc != nil {
			m.smc.Flush()
		}
		m.cls.Flush()
	}
}

// FlowCount reports megaflows across all PMDs (diagnostics).
func (d *Datapath) FlowCount() int {
	n := 0
	for _, m := range d.pmds {
		n += m.cls.Len()
	}
	return n
}

// PMDs returns the datapath's packet-processing threads (dpif flow dumps,
// diagnostics).
func (d *Datapath) PMDs() []*PMD { return d.pmds }

// EnableTrace arms packet-lifecycle tracing on every PMD, keeping the last
// n records per thread; n <= 0 disables it. Tracing is pure accounting and
// does not perturb virtual time.
func (d *Datapath) EnableTrace(n int) {
	d.traceDepth = n
	for _, m := range d.pmds {
		m.Perf.EnableTrace(n)
	}
}

// SetFlowHook registers (or, with nil, clears) the flow-installed
// notification as every PMD classifier's OnInsert callback — existing
// threads and ones created later alike.
func (d *Datapath) SetFlowHook(fn func(dpcls.Handle)) {
	d.flowHook = fn
	for _, m := range d.pmds {
		m.cls.OnInsert = fn
	}
}

// Execute runs one packet through the fast path as if it had arrived on
// p.InPort, on the first PMD (creating an unstarted one when the datapath
// has no threads yet) — the dpif execute analog.
func (d *Datapath) Execute(p *packet.Packet) {
	if len(d.pmds) == 0 {
		d.NewPMD(ModeNonPMD, nil)
	}
	d.pmds[0].process(p, true)
}

// Receive implements fastpath.Provider, the netdev receive path: a packet
// the NIC's hardware flow table matches is forwarded there and goes no
// further; the rest pay dp_packet metadata, receive checksum validation and
// key extraction.
func (m *PMD) Receive(_ *fastpath.Thread, _ *sim.CPU, p *packet.Packet, depth int) bool {
	d := m.dp
	// Hardware flow-table match: the NIC forwards offloaded flows itself,
	// so the packet bypasses metadata, checksum, parse, and every software
	// cache, paying only the near-zero host-side bookkeeping. Recirculated
	// packets (depth > 0) are already on the host and stay there.
	if depth == 0 && d.offload != nil && d.offload.on {
		if actions, ok := d.offload.hwLookup(p); ok {
			m.charge(perf.StageOffload, costmodel.OffloadHit)
			m.Perf.OffloadHits++
			m.Resolved(perf.ResultOffload)
			d.hwForward(m, p, actions)
			return false
		}
	}

	// dp_packet metadata (O4).
	m.charge(perf.StageRx, costmodel.PacketMetadataInit)
	if d.Opts.MetadataMmap {
		m.charge(perf.StageRx, costmodel.PacketMetadataMmap)
	}

	// Receive-side checksum validation (O5): packets whose checksum no
	// hardware vouched for (AF_XDP physical receive) are validated in
	// software, unless the experiment assumes the future offload.
	if depth == 0 && p.Offloads&(packet.CsumVerified|packet.CsumPartial) == 0 {
		if !d.Opts.AssumeCsumOffload {
			m.charge(perf.StageRx, costmodel.ChecksumCost(len(p.Data)))
		}
		p.Offloads |= packet.CsumVerified
	}

	// Key extraction, which the pass runs next, at the calibrated rate.
	m.charge(perf.StageRx, costmodel.ParseFlowKey)
	return true
}

// Lookup implements fastpath.Provider: the cache hierarchy, then the
// elephant install — a software hit on a marked flow means its exact key is
// not in hardware yet (Receive forwards resident ones), so it goes down now.
func (m *PMD) Lookup(_ *fastpath.Thread, _ *sim.CPU, key *flow.Key, depth int) ([]ofproto.DPAction, bool) {
	e, r := m.lookupHierarchy(key)
	if e == nil {
		return nil, false
	}
	actions := m.cls.Actions(e)
	if e.OffloadMarked() && depth == 0 && len(actions) > 0 && m.dp.offload != nil {
		m.dp.offload.installFor(key, dpcls.Handle{Table: m.cls, Ref: r})
	}
	return actions, true
}

// Install implements fastpath.Provider: the megaflow goes into the thread's
// classifier and back-fills the caches with the hashes Lookup computed.
func (m *PMD) Install(_ *fastpath.Thread, key *flow.Key, mf ofproto.Megaflow) {
	m.cacheInsert(key, m.hashes, m.cls.InsertKey(key, &mf.Mask, mf.Actions))
}

// Transmit implements fastpath.Provider: the port, the output action's
// cost, then transmit's offload fix-ups and the port's own Tx.
func (m *PMD) Transmit(_ *fastpath.Thread, _ *sim.CPU, port uint32, p *packet.Packet) bool {
	out := m.dp.ports[port]
	if out == nil {
		return false
	}
	m.charge(perf.StageActions, costmodel.ExecActionOutput)
	m.dp.transmit(m, out, p)
	return true
}

// lookupHierarchy resolves key through the cache hierarchy — EMC, SMC,
// megaflow classifier — charging each level probed and counting the hit at
// the level that resolved it, exactly as dfc_processing walks the caches.
// It returns the megaflow's header and its ref. A dpcls hit back-fills the
// faster caches; nil means every level missed and the pass owns the slow
// path. The key is hashed once per cache consulted, and the hashes are kept
// in m.hashes for Install's back-fill after an upcall.
func (m *PMD) lookupHierarchy(key *flow.Key) (*dpcls.Entry, dpcls.Ref) {
	h := &m.hashes
	if !m.dp.emcOff {
		h.emc = m.emc.Hash(key)
		if r, ok := m.emc.LookupHashed(key, h.emc); ok {
			m.charge(perf.StageEMC, costmodel.EMCHit)
			if m.emc.Len() > costmodel.ColdFlowThreshold {
				m.charge(perf.StageEMC, costmodel.ColdFlowCacheMiss)
			}
			// An EMC hit is activity on the underlying megaflow: count it
			// there too (as the SMC path does), or the revalidator sees
			// EMC-resident flows as idle and evicts live flows.
			e := m.cls.Get(r)
			e.Hits++
			m.Perf.EMCHits++
			m.Resolved(perf.ResultEMC)
			return e, r
		}
		m.charge(perf.StageEMC, costmodel.EMCMissProbe)
	}
	if m.smc != nil {
		h.smc = m.smc.Hash(key)
		if r, ok := m.smc.LookupHashed(m.cls, key, h.smc); ok {
			m.charge(perf.StageSMC, costmodel.SMCHit)
			if m.smc.Len() > costmodel.ColdFlowThreshold {
				m.charge(perf.StageSMC, costmodel.ColdFlowCacheMiss)
			}
			m.Perf.SMCHits++
			m.Resolved(perf.ResultSMC)
			// An SMC hit refreshes the EMC, as dfc_processing does on
			// its way out.
			m.emcInsert(key, h.emc, r)
			return m.cls.Get(r), r
		}
		m.charge(perf.StageSMC, costmodel.SMCMissProbe)
	}
	e, r, probes := m.cls.LookupKey(key)
	m.charge(perf.StageDpcls, sim.Time(probes)*costmodel.DpclsLookupPerSubtable)
	if e == nil {
		return nil, 0
	}
	m.Perf.MegaflowHits++
	m.Resolved(perf.ResultMegaflow)
	m.cacheInsert(key, *h, r)
	return e, r
}

// transmit handles offload fix-ups before handing the packet to the port:
// software checksumming when the egress lacks the offload (O5) and
// software TSO segmentation when the egress lacks TSO (Figure 8's
// pre-TSO-support bars), each segment paying a copy. Every Caps is all or
// nothing, so a segment's checksum is settled above, with the super-frame's.
func (d *Datapath) transmit(m *PMD, out Port, p *packet.Packet) {
	caps := PortCaps(out)
	cpu := m.CPU

	if p.Offloads&packet.CsumPartial != 0 && !caps.TxCsum {
		if !d.Opts.AssumeCsumOffload {
			m.charge(perf.StageActions, costmodel.ChecksumCost(len(p.Data)))
		}
		p.Offloads &^= packet.CsumPartial
		p.Offloads |= packet.CsumVerified
	}

	txq := d.TxqFor(m, out)
	// p alone, unless software TSO splits it; the array stays on the stack.
	whole := [1]*packet.Packet{p}
	frames, split := whole[:], false
	if p.SegSize > 0 && !caps.TSO && !d.Opts.AssumeTSO {
		if segs := p.Segment(); segs != nil {
			frames, split = segs, true
		}
	}
	for _, f := range frames {
		if split {
			m.charge(perf.StageActions, costmodel.CopyCost(len(f.Data)))
		}
		d.chargeTxLock(m, out)
		txBefore := cpu.BusyTotal()
		out.Tx(cpu, txq, f)
		m.Perf.Add(perf.StageActions, cpu.BusyTotal()-txBefore)
	}
	if split {
		p.Release()
	}
	m.touch(out)
}
