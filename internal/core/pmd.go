package core

import (
	"fmt"

	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/emc"
	"ovsxdp/internal/fastpath"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/perf"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/smc"
	"ovsxdp/internal/upcall"
)

// Mode selects how a packet-processing thread is driven.
type Mode int

// Thread modes.
const (
	// ModePoll is optimization O1: a dedicated PMD thread busy-polls its
	// receive queues.
	ModePoll Mode = iota
	// ModeNonPMD is the pre-O1 behaviour: the shared main thread
	// interleaves packet work with OpenFlow/OVSDB processing, paying a
	// poll()-and-wakeup gap around every batch.
	ModeNonPMD
	// ModeInterrupt sleeps until a queue signals packets (Figure 8a's
	// "interrupt" configuration): no busy-poll CPU burn, but a wakeup
	// cost per burst and none of the batching benefits at low rates.
	ModeInterrupt
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModePoll:
		return "pmd-poll"
	case ModeNonPMD:
		return "non-pmd"
	default:
		return "interrupt"
	}
}

// RxQueue names one (port, queue) a PMD polls.
type RxQueue struct {
	Port  Port
	Queue int
}

// PMD is one poll-mode-driver thread: a dedicated CPU, its assigned
// receive queues, and its private exact-match cache and megaflow
// classifier (per-PMD, lockless, exactly as dpif-netdev partitions them).
type PMD struct {
	// Thread is the pass's per-thread state: the perf block
	// (dpif-netdev-perf, pure accounting) and the slow path.
	fastpath.Thread
	ID  int
	CPU *sim.CPU
	dp  *Datapath

	emc *emc.Cache[dpcls.Ref]
	// smc is the signature match cache, allocated only while smc-enable
	// is on (an 8 KiB page table; its 4 KiB bucket pages come on first use).
	smc *smc.Cache
	cls *dpcls.Classifier
	// rxqs is the thread's poll list; the entries are owned by the
	// datapath's assignment layer, which also meters each queue's cycle
	// consumption for the cycles policy and the auto-load-balancer.
	rxqs []*rxqState
	mode Mode

	running bool
	stopped bool
	active  bool // has seen work; feeds the contention count
	// touched lists ports with batched transmissions pending flush, in
	// first-touch order — a deterministic flush sequence, where ranging
	// over a map would reorder costs run to run. Dedup is a linear scan:
	// a PMD touches a handful of ports per iteration at most.
	touched []Port

	// iterTimer rearms the iterate loop. The timer binds the method value
	// once, so rescheduling every iteration allocates nothing.
	iterTimer *sim.Timer

	// hashes are the pass in progress's key hashes, kept for Install.
	hashes keyHashes
}

// NewPMD creates a PMD on the datapath. Each PMD gets its own CPU unless
// cpu is non-nil.
func (d *Datapath) NewPMD(mode Mode, cpu *sim.CPU) *PMD {
	id := len(d.pmds)
	if cpu == nil {
		cpu = d.Eng.NewCPU(fmt.Sprintf("pmd%d", id))
	}
	m := &PMD{
		Thread: fastpath.Thread{Perf: &perf.Stats{}},
		ID:     id,
		CPU:    cpu,
		dp:     d,
		emc:    emc.New[dpcls.Ref](costmodel.EMCEntries, uint32(id)*0x9e37+1),
		cls:    dpcls.New(uint32(id)*0x79b9 + 7),
		mode:   mode,
	}
	// A removed megaflow's EMC entries purge lazily on their next lookup or
	// insert (emc_entry_alive): its ref fails the stamp compare.
	m.emc.SetAliveCheck(m.cls.Live)
	m.cls.OnInsert = d.flowHook
	m.iterTimer = d.Eng.NewTimer(m.iterate)
	// The slow path sees this thread's private classifier, the datapath's
	// shared handler thread, and uncounted reinjection on this PMD.
	m.Slow = upcall.NewQueue(d.Eng, &d.UpcallQueueCap, &d.Counters, m.Perf, upcall.Host{
		Table:     m.cls,
		Install:   m.cls.Insert,
		Remove:    m.RemoveFlow,
		Translate: d.Translate,
		Handler:   d.HandlerCPU,
		Category:  sim.User,
		Reinject:  func(p *packet.Packet, _ *sim.CPU) { m.process(p, false) },
		Release:   (*packet.Packet).Release,
	})
	m.reconfigureSMC()
	if d.traceDepth > 0 {
		m.Perf.EnableTrace(d.traceDepth)
	}
	d.pmds = append(d.pmds, m)
	return m
}

// process runs one received packet through the pass on this thread; count
// is false for a packet reinjected after its queued upcall resolved.
func (m *PMD) process(p *packet.Packet, count bool) {
	m.dp.Process(m, &m.Thread, m.CPU, p, 0, count)
}

// charge consumes d in the User category on the PMD's CPU and attributes
// the same amount to a perf stage — the one instrumentation point that
// keeps counters and virtual time in lockstep.
func (m *PMD) charge(st perf.Stage, d sim.Time) {
	m.CPU.Consume(sim.User, d)
	m.Perf.Add(st, d)
}

// reconfigureSMC brings the thread's signature cache in line with the
// datapath's smc-enable: allocated while it is on, released when off.
func (m *PMD) reconfigureSMC() {
	if !m.dp.smcOn {
		m.smc = nil
		return
	}
	if m.smc == nil {
		m.smc = smc.New(costmodel.SMCEntries, uint32(m.ID)*0x85eb+3)
	}
}

// EMCStats exposes cache hit counters for experiments.
func (m *PMD) EMCStats() (hits, misses uint64) { return m.emc.Hits, m.emc.Misses }

// SMCStats exposes signature-cache hit counters for experiments; both are
// zero when the SMC is disabled.
func (m *PMD) SMCStats() (hits, misses uint64) {
	if m.smc == nil {
		return 0, 0
	}
	return m.smc.Hits, m.smc.Misses
}

// Classifier exposes the megaflow classifier (tests, flow dumping).
func (m *PMD) Classifier() *dpcls.Classifier { return m.cls }

// keyHashes carries one packet pass's key hashes, one per cache: each is
// computed by lookupHierarchy when it consults that cache and reused by the
// back-fill insert, which also takes its victim way from it. A field is
// meaningful only while its cache is enabled, which is also the only time
// it is read.
type keyHashes struct{ emc, smc uint32 }

// emcInsert inserts into the EMC when it is enabled.
func (m *PMD) emcInsert(key *flow.Key, hash uint32, r dpcls.Ref) {
	if !m.dp.emcOff {
		m.emc.InsertHashed(key, hash, r)
	}
}

// cacheInsert back-fills the fast caches after a dpcls hit or upcall
// install: the EMC and, when enabled, the SMC — which is what keeps
// high-flow-count workloads out of the classifier once the EMC saturates.
func (m *PMD) cacheInsert(key *flow.Key, h keyHashes, r dpcls.Ref) {
	m.emcInsert(key, h.emc, r)
	if m.smc != nil {
		m.charge(perf.StageSMC, costmodel.SMCInsert)
		m.smc.InsertHashed(h.smc, r)
	}
}

// Start launches the thread's loop.
func (m *PMD) Start() {
	m.stopped = false
	switch m.mode {
	case ModeInterrupt:
		m.armAll()
	default:
		m.wake()
	}
}

// Stop halts the loop after the current iteration.
func (m *PMD) Stop() { m.stopped = true }

func (m *PMD) wake() {
	if m.running || m.stopped {
		return
	}
	m.running = true
	m.iterTimer.Schedule(0)
}

func (m *PMD) armAll() {
	for _, st := range m.rxqs {
		st.rxq.Port.Arm(st.rxq.Queue, m.onInterrupt)
	}
}

func (m *PMD) onInterrupt() {
	if m.running || m.stopped {
		return
	}
	// Wakeup: context switch into the blocked thread.
	m.charge(perf.StageRx, costmodel.InterruptModeWakeup)
	m.running = true
	m.iterTimer.ScheduleAt(m.CPU.FreeAt())
}

// iterate is one pass over the assigned receive queues.
func (m *PMD) iterate() {
	if m.stopped {
		m.running = false
		return
	}
	m.Perf.AddIteration()
	contention := m.dp.Opts.ContentionCentis
	var stagesBefore [perf.NumStages]sim.Time
	if contention > 0 {
		stagesBefore = m.Perf.Cycles
	}
	work := 0
	busyBefore := m.CPU.BusyTotal()
	for _, st := range m.rxqs {
		rxq := st.rxq
		rxBefore := m.CPU.BusyTotal()
		pkts := rxq.Port.Rx(m.CPU, rxq.Queue, costmodel.BatchSize)
		m.Perf.Add(perf.StageRx, m.CPU.BusyTotal()-rxBefore)
		if len(pkts) == 0 {
			continue
		}
		work += len(pkts)
		m.Perf.AddBatch(len(pkts))
		if m.mode == ModeNonPMD {
			// The shared thread pays the poll()/wakeup gap around
			// each batch (Table 2's 0.8 vs 4.8 Mpps).
			m.charge(perf.StageRx, costmodel.NonPMDPollGap)
		}
		for _, p := range pkts {
			m.process(p, true)
		}
		// Meter the queue's cycle share (receive through actions) for
		// the cycles assignment policy and the auto-load-balancer.
		// Pure accounting: the cycles were already charged above.
		spent := m.CPU.BusyTotal() - rxBefore
		st.intervalCycles += spent
		st.totalCycles += spent
	}
	if work > 0 {
		if !m.active {
			m.active = true
			m.dp.activePMDs++
		}
		// Multi-PMD contention: shared cache and memory bandwidth
		// inflate per-packet costs as more threads run hot
		// (Figure 12's sub-linear 64B scaling).
		if contention > 0 && m.dp.activePMDs > 1 {
			milli := costmodel.UserContentionMilli(m.dp.activePMDs, contention)
			extra := (m.CPU.BusyTotal() - busyBefore) * sim.Time(milli-1000) / 1000
			if extra > 0 {
				m.CPU.Consume(sim.User, extra)
				m.spreadContention(extra, &stagesBefore)
			}
		}
	}
	// Flush batched transmissions on every port this iteration touched,
	// in first-touch order. A shared tx queue (XPS: more PMDs than the
	// port has txqs) pays its spinlock once per flush here.
	flushBefore := m.CPU.BusyTotal()
	for _, port := range m.touched {
		if m.dp.txqContended(port) {
			m.CPU.Consume(sim.User, costmodel.XPSTxSpinPerFlush)
			m.Perf.TxLockCycles += costmodel.XPSTxSpinPerFlush
		}
		port.Flush(m.CPU, m.dp.TxqFor(m, port))
	}
	m.touched = m.touched[:0]
	m.Perf.Add(perf.StageActions, m.CPU.BusyTotal()-flushBefore)

	switch {
	case m.mode == ModeInterrupt && work == 0:
		// Sleep until a queue signals.
		m.running = false
		m.armAll()
	default:
		if work == 0 {
			m.charge(perf.StageIdle, costmodel.PollIdleIteration)
		}
		next := m.CPU.FreeAt()
		if now := m.dp.Eng.Now(); next < now {
			next = now
		}
		m.iterTimer.ScheduleAt(next)
	}
}

// spreadContention attributes a contention surcharge to the stages that
// inflated it, pro rata to what each charged since before; the integer
// remainder goes to the largest.
func (m *PMD) spreadContention(extra sim.Time, before *[perf.NumStages]sim.Time) {
	var spent [perf.NumStages]sim.Time
	var total sim.Time
	largest := perf.Stage(0)
	for st := range spent {
		spent[st] = m.Perf.Cycles[st] - before[st]
		total += spent[st]
		if spent[st] > spent[largest] {
			largest = perf.Stage(st)
		}
	}
	rest := extra
	for st, c := range spent {
		share := extra * c / total
		m.Perf.Add(perf.Stage(st), share)
		rest -= share
	}
	m.Perf.Add(largest, rest)
}

func (m *PMD) touch(p Port) {
	for _, q := range m.touched {
		if q == p {
			return
		}
	}
	m.touched = append(m.touched, p)
}

// RemoveFlow deletes one megaflow from the thread's classifier and, in the
// same pass, unlinks it from everything cached above it, so unrelated cache
// entries survive (flow delete, negative-flow expiry). A megaflow covers
// arbitrarily many exact keys, so its EMC entries cannot be found by key:
// the removal clears its record's stamp and the EMC's alive check
// purges each stale slot on its next lookup, O(1) per delete instead of the
// churn-collapsing full flush. The SMC drops it from its indirection table,
// and the NIC flow table its hardware rules — an uninstalled rule must never
// forward with stale actions. It reports whether r was still installed.
func (m *PMD) RemoveFlow(r dpcls.Ref) bool {
	if !m.cls.Remove(r) {
		return false
	}
	if m.smc != nil {
		m.smc.Invalidate(r)
	}
	if off := m.dp.offload; off != nil {
		off.uninstall(dpcls.Handle{Table: m.cls, Ref: r})
	}
	return true
}
