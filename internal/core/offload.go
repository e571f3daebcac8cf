package core

// Hardware flow offload: the tc/ASAP²-style fast path the paper's Fig 6
// steering model stops short of. An offload engine watches per-megaflow
// hit rates (EWMA over counter-readback intervals), classes the hot tail
// as elephants, and pushes their exact keys into the NIC's bounded
// hardware flow table (nicsim.FlowTable). Packets that match in hardware
// short-circuit the PMD at costmodel.OffloadHit — no metadata, no
// checksum, no parse, no cache probe — while rule installs and the
// periodic counter readback are charged to a dedicated offload driver
// thread, never the PMD.
//
// Correctness hinges on two disciplines:
//
//   - Counter readback: hardware counts matches privately, so without the
//     periodic merge into dpcls.Entry.Hits an offloaded flow would look
//     idle to the revalidator and be evicted mid-flight. The readback
//     interval must therefore stay well under the idle timeout.
//   - Invalidation aliasing: a hardware rule's cookie is the live
//     *dpcls.Entry, the same pointer the EMC holds — replacements update
//     actions in place, and FlowDel purges the NIC table in the same pass
//     as the EMC/SMC invalidation. The hit path additionally refuses to
//     forward by a dead entry (defense in depth, the PR-7 EMC discipline).
//
// Everything is off by default: with Offload.Enable false no engine
// exists, no event is scheduled, and no charge is made, keeping default
// runs byte-identical.

import (
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/nicsim"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/sim"
)

// OffloadOptions parameterizes the hardware-offload engine; the zero value
// (Enable false) disables it entirely.
type OffloadOptions struct {
	// Enable turns the engine on (other_config:hw-offload).
	Enable bool
	// TableSize is the hardware rule-table capacity; zero uses
	// costmodel.OffloadTableSize.
	TableSize int
	// ElephantPPS is the EWMA packet rate above which a megaflow is
	// offloaded; zero uses costmodel.OffloadElephantPPS.
	ElephantPPS int
	// ReadbackInterval is the counter-readback (and rate-sampling)
	// period; zero uses costmodel.OffloadReadbackInterval.
	ReadbackInterval sim.Time
}

// withDefaults resolves zero fields to the costmodel defaults.
func (o OffloadOptions) withDefaults() OffloadOptions {
	if o.TableSize <= 0 {
		o.TableSize = costmodel.OffloadTableSize
	}
	if o.ElephantPPS <= 0 {
		o.ElephantPPS = costmodel.OffloadElephantPPS
	}
	if o.ReadbackInterval <= 0 {
		o.ReadbackInterval = costmodel.OffloadReadbackInterval
	}
	return o
}

// OffloadStats is the engine's counter snapshot; all zero while offload
// has never been enabled.
type OffloadStats struct {
	// Hits counts packets forwarded from the hardware table.
	Hits uint64
	// Installs / Evictions / Uninstalls / Live form the conservation
	// ledger: Installs == Evictions + Uninstalls + Live at all times.
	Installs   uint64
	Evictions  uint64
	Uninstalls uint64
	Live       int
	// Refused counts installs declined by admission control (table full
	// of still-active rules).
	Refused uint64
	// Readbacks counts counter-readback sweeps; HWMergedHits the hardware
	// hits they merged into megaflow stats.
	Readbacks    uint64
	HWMergedHits uint64
	// Capacity is the effective table capacity (after any fault clamp).
	Capacity int
}

// offloadRec is the engine's per-megaflow rate state.
type offloadRec struct {
	// lastHits snapshots Entry.Hits (software + merged hardware) at the
	// previous sample tick.
	lastHits uint64
	// ewmaMilli is the EWMA flow rate in milli-hits per readback interval
	// (milli so mouse-grade rates do not floor to zero in integer math).
	ewmaMilli uint64
	// keys lists the exact keys currently installed in hardware for this
	// megaflow.
	keys []flow.Key
	// seen is the engine tick that last saw the flow in a classifier;
	// flows that vanish without a FlowDel are reaped by tick sweep.
	seen uint64
}

// offloadEngine owns the NIC flow table, the per-flow rate tracker, and
// the readback/decision tick. It is created on first enable and survives
// disable (counters persist); the on flag gates all behavior.
type offloadEngine struct {
	dp    *Datapath
	table *nicsim.FlowTable
	// cpu is the offload driver thread: rule installs and counter
	// readback are charged here, so the PMD's cycles-freed headline is
	// not polluted by offload bookkeeping.
	cpu     *sim.CPU
	timer   *sim.Timer
	opts    OffloadOptions // defaults applied
	on      bool
	tickNo  uint64
	recs    map[*dpcls.Entry]*offloadRec
	scratch []*dpcls.Entry
	// thresholdMilli is ElephantPPS converted to milli-hits per interval.
	thresholdMilli uint64
	// hwMergedHits counts hardware hits merged into megaflow stats.
	hwMergedHits uint64
}

func newOffloadEngine(d *Datapath, o OffloadOptions) *offloadEngine {
	e := &offloadEngine{
		dp:    d,
		table: nicsim.NewFlowTable(o.TableSize),
		cpu:   d.Eng.NewCPU("hw-offload"),
		recs:  make(map[*dpcls.Entry]*offloadRec),
	}
	e.timer = d.Eng.NewTimer(e.tick)
	e.applyOpts(o)
	return e
}

// applyOpts installs new settings, resizing the hardware table in place so
// the install/evict ledger carries across a reconfigure.
func (o *offloadEngine) applyOpts(opts OffloadOptions) {
	o.opts = opts
	o.thresholdMilli = uint64(opts.ElephantPPS) * uint64(opts.ReadbackInterval) / 1_000_000
	if o.thresholdMilli < 1 {
		o.thresholdMilli = 1
	}
	if o.table.Capacity() != opts.TableSize {
		o.table.SetCapacity(opts.TableSize, o.dropHW)
	}
}

// start (re-)arms the readback timer; Schedule cancels any pending arm, so
// a reconfigure moves the next readback to the new cadence immediately
// rather than after one stale interval.
func (o *offloadEngine) start() {
	o.on = true
	o.timer.Schedule(o.opts.ReadbackInterval)
}

// disable stops the tick and hands every offloaded flow back to software
// (the rules are uninstalled, so nothing stale can keep forwarding).
func (o *offloadEngine) disable() {
	if !o.on {
		return
	}
	o.on = false
	o.flushAll()
}

// tick is one readback-and-decision pass on the offload thread: merge
// hardware counters into megaflow stats, resample every megaflow's rate,
// and mark or unmark elephants.
func (o *offloadEngine) tick() {
	if !o.on {
		return
	}
	o.tickNo++
	o.cpu.Consume(sim.User, costmodel.OffloadReadbackPerFlow*sim.Time(o.table.Len()))
	o.table.Readback(o.merge)

	const w = uint64(costmodel.OffloadRateEWMAPct)
	for _, m := range o.dp.pmds {
		o.scratch = m.cls.EntriesInto(o.scratch)
		for _, e := range o.scratch {
			rec := o.recs[e]
			if rec == nil {
				rec = &offloadRec{}
				o.recs[e] = rec
			}
			delta := e.Hits - rec.lastHits
			rec.lastHits = e.Hits
			rec.ewmaMilli = (w*delta*1000 + (100-w)*rec.ewmaMilli) / 100
			rec.seen = o.tickNo
			if rec.ewmaMilli >= o.thresholdMilli && offloadableActions(e.Actions) {
				e.OffloadMark = 1
			} else {
				e.OffloadMark = 0
			}
		}
	}

	// Reap flows that left the classifier without passing through
	// FlowDel's uninstall (defense in depth; the removals commute, so map
	// order cannot leak into observable state).
	for e, rec := range o.recs {
		if rec.seen != o.tickNo {
			for _, k := range rec.keys {
				o.table.Uninstall(k)
			}
			delete(o.recs, e)
		}
	}

	o.timer.Schedule(o.opts.ReadbackInterval)
}

// merge folds one entry's hardware hit delta into its megaflow stats —
// what keeps the revalidator from idle-evicting hardware-hot flows.
func (o *offloadEngine) merge(cookie any, delta uint64) {
	e := cookie.(*dpcls.Entry)
	e.Hits += delta
	o.hwMergedHits += delta
}

// hwLookup matches a packet against the NIC flow table. The hardware
// parses and matches for free (no CPU charge, like nicsim rxq steering);
// only live megaflows forward — a dead cookie is purged on sight instead
// of forwarding with stale actions.
func (o *offloadEngine) hwLookup(p *packet.Packet) (*dpcls.Entry, bool) {
	var key flow.Key
	flow.ExtractInto(p, &key)
	c, ok := o.table.Lookup(key)
	if !ok {
		return nil, false
	}
	e := c.(*dpcls.Entry)
	if e.Dead() || !offloadableActions(e.Actions) {
		// Either the megaflow was removed between our uninstall discipline's
		// passes, or an in-place replacement swapped in actions the hardware
		// cannot execute: purge every rule of the flow and fall back to
		// software rather than forward wrongly.
		o.uninstallEntry(e)
		return nil, false
	}
	return e, true
}

// installFor pushes one exact key of a marked megaflow into hardware,
// charging the driver install to the offload thread. Called on the packet
// path only for hardware misses of elephant-marked flows, so a resident
// elephant costs nothing here.
func (o *offloadEngine) installFor(key *flow.Key, e *dpcls.Entry) {
	evicted, ok := o.table.Install(*key, e)
	if !ok {
		return
	}
	o.cpu.Consume(sim.User, costmodel.OffloadInstall)
	rec := o.recs[e]
	if rec == nil {
		rec = &offloadRec{lastHits: e.Hits}
		o.recs[e] = rec
	}
	rec.keys = append(rec.keys, *key)
	if evicted != nil {
		o.dropHW(evicted)
	}
}

// dropHW unbooks an evicted hardware rule from its megaflow's record.
func (o *offloadEngine) dropHW(hw *nicsim.HWFlow) {
	e, ok := hw.Cookie.(*dpcls.Entry)
	if !ok {
		return
	}
	rec := o.recs[e]
	if rec == nil {
		return
	}
	for i, k := range rec.keys {
		if k == hw.Key {
			rec.keys = append(rec.keys[:i], rec.keys[i+1:]...)
			break
		}
	}
}

// uninstallEntry purges every hardware rule of a removed megaflow — the
// NIC-table leg of the FlowDel invalidation pass (EMC, SMC, and hardware
// in the same breath).
func (o *offloadEngine) uninstallEntry(e *dpcls.Entry) {
	e.OffloadMark = 0
	rec := o.recs[e]
	if rec == nil {
		return
	}
	for _, k := range rec.keys {
		o.table.Uninstall(k)
	}
	rec.keys = rec.keys[:0]
	delete(o.recs, e)
}

// flushAll empties the hardware table and the rate tracker (datapath flow
// flush, engine disable).
func (o *offloadEngine) flushAll() {
	o.table.Flush(func(hw *nicsim.HWFlow) {
		if e, ok := hw.Cookie.(*dpcls.Entry); ok {
			e.OffloadMark = 0
		}
	})
	for e := range o.recs {
		e.OffloadMark = 0
		delete(o.recs, e)
	}
}

// clamp applies or releases the offload-table-pressure fault.
func (o *offloadEngine) clamp(n int) {
	o.table.Clamp(n, o.dropHW)
}

// offloadableActions reports whether an action list is within the
// hardware's capability: eth rewrites, VLAN push/pop, and TTL decrement
// followed by a single terminal output. Conntrack, tunnels, meters, and
// empty (drop) lists stay in software, as tc offload declines them.
func offloadableActions(actions []ofproto.DPAction) bool {
	for i, act := range actions {
		switch act.Type {
		case ofproto.DPOutput:
			return i == len(actions)-1
		case ofproto.DPSetEthSrc, ofproto.DPSetEthDst,
			ofproto.DPPushVLAN, ofproto.DPPopVLAN, ofproto.DPDecTTL:
		default:
			return false
		}
	}
	return false
}

// ConfigureOffload enables, reconfigures, or disables the hardware-offload
// engine at runtime (other_config:hw-offload*). Disabling uninstalls every
// hardware rule, so traffic falls back to the software hierarchy; counters
// persist across disable/enable.
func (d *Datapath) ConfigureOffload(o OffloadOptions) {
	d.Opts.Offload = o
	if !o.Enable {
		if d.offload != nil {
			d.offload.disable()
		}
		return
	}
	resolved := o.withDefaults()
	if d.offload == nil {
		d.offload = newOffloadEngine(d, resolved)
	} else {
		d.offload.applyOpts(resolved)
	}
	d.offload.start()
}

// OffloadEnabled reports whether the engine is running.
func (d *Datapath) OffloadEnabled() bool { return d.offload != nil && d.offload.on }

// OffloadSettings returns the effective engine settings (defaults applied),
// for config readback.
func (d *Datapath) OffloadSettings() OffloadOptions {
	o := d.Opts.Offload.withDefaults()
	o.Enable = d.OffloadEnabled()
	return o
}

// OffloadStats snapshots the engine counters; zero-valued before the
// engine ever ran.
func (d *Datapath) OffloadStats() OffloadStats {
	o := d.offload
	if o == nil {
		return OffloadStats{}
	}
	return OffloadStats{
		Hits:         o.table.Hits,
		Installs:     o.table.Installs,
		Evictions:    o.table.Evictions,
		Uninstalls:   o.table.Uninstalls,
		Live:         o.table.Len(),
		Refused:      o.table.Refused,
		Readbacks:    o.table.Readbacks,
		HWMergedHits: o.hwMergedHits,
		Capacity:     o.table.EffectiveCapacity(),
	}
}

// OffloadClamp applies (n > 0) or releases (n <= 0) a fault-injected
// hardware-table capacity clamp — the offload-table-pressure fault's side
// effect hook.
func (d *Datapath) OffloadClamp(n int) {
	if d.offload != nil {
		d.offload.clamp(n)
	}
}

// hwForward executes a hardware-offloaded action list: the NIC applies the
// rewrites and forwards without host CPU involvement, so nothing here is
// charged beyond the OffloadHit the caller already paid.
func (d *Datapath) hwForward(m *PMD, p *packet.Packet, actions []ofproto.DPAction) {
	for i := range actions {
		a := &actions[i]
		switch a.Type {
		case ofproto.DPOutput:
			out := d.ports[a.Port]
			if out == nil {
				d.Drops++
				p.Release()
				return
			}
			if m.trace != nil {
				m.trace.OutPort = a.Port
			}
			out.Tx(m.CPU, d.TxqFor(m, out), p)
			m.touch(out)
			return
		default:
			a.Rewrite(p)
		}
	}
	d.Drops++
	p.Release()
}
