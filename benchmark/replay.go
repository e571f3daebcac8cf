package main

import (
	"time"

	"ovsxdp/internal/afxdp"
	"ovsxdp/internal/conntrack"
	"ovsxdp/internal/core"
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/dpcls"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/emc"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/nicsim"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/smc"
	"ovsxdp/internal/trafficgen"
)

// Layer replay: the workload's own frame and key stream is fed straight into
// each layer's public entry point and timed from outside, one layer at a
// time. Multiplied by how often the timed phase called the layer per packet,
// each cost becomes that layer's estimated share of the simulator's host
// time — the answer to "wheel, device models, or classifier?".

// replayReps is how many chunks a measurement is split into; the reported
// cost is the median chunk.
const replayReps = 5

// timeOps runs op over [0, n) in replayReps chunks and returns the median
// host nanoseconds per index.
func timeOps(n int, op func(lo, hi int)) float64 {
	chunk := n / replayReps
	if chunk < 1 {
		chunk = 1
	}
	per := make([]float64, replayReps)
	for r := range per {
		t0 := time.Now()
		op(r*chunk, (r+1)*chunk)
		per[r] = float64(time.Since(t0)) / float64(chunk)
	}
	return median(per)
}

// replaySet is the workload's stream materialised once: one packet and one
// extracted key per flow of the working set.
type replaySet struct {
	pkts []*packet.Packet
	keys []flow.Key
}

func newReplaySet(in *instance) replaySet {
	n := in.gen.flowCount()
	rs := replaySet{pkts: make([]*packet.Packet, n), keys: make([]flow.Key, n)}
	for i := range rs.pkts {
		p := packet.New(append([]byte(nil), in.gen.frameAt(i)...))
		p.InPort = 1
		rs.pkts[i] = p
		rs.keys[i] = flow.Extract(p)
	}
	return rs
}

// replayLayers measures every layer and returns host ns per call by metric
// name.
func replayLayers(w workload, sc scale, in *instance) map[string]float64 {
	rs := newReplaySet(in)
	n, flows := sc.replayOps, len(rs.pkts)
	out := map[string]float64{}

	// sim: one engine event is a timer arm plus its dispatch. Sixteen
	// staggered self-rearming timers keep the wheel populated.
	{
		eng := sim.NewEngine(1)
		timers := make([]*sim.Timer, 16)
		for i := range timers {
			timers[i] = eng.NewTimer(func() { timers[i].Schedule(1600) })
			timers[i].Schedule(sim.Time(100 * i))
		}
		out["sim.timer_ns"] = timeOps(n, func(lo, hi int) {
			eng.RunUntil(eng.Now() + sim.Time(100*(hi-lo)))
		})
	}

	// packet: the arena acquire/release pair every hop pays.
	{
		pool := packet.NewPool(64, 64, true)
		out["packet.pool_ns"] = timeOps(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				pool.GetCopy(rs.pkts[i%flows].Data).Release()
			}
		})
	}

	// trafficgen: the library generator's template copy (the capacity
	// search of the paper exhibits uses it; the timed phase uses this
	// package's stamped generator).
	{
		g := trafficgen.NewUDPGen(sim.NewEngine(1), min(flows, 1024), 64, nil)
		out["trafficgen.next_ns"] = timeOps(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				g.Next().Release()
			}
		})
	}

	// nicsim: wire-side ingress (classify, RSS, ring), with the rings
	// popped every 32 frames as a consumer would.
	{
		queues := 1
		if w.name == "kernel_p2p" {
			queues = 12
		}
		nic := nicsim.New(sim.NewEngine(1), nicsim.Config{Name: "r0", Ifindex: 1, Queues: queues,
			LinkRate: costmodel.LinkRate25G})
		pool := packet.NewPool(256, 64, true)
		out["nicsim.receive_ns"] = timeOps(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				nic.Receive(pool.GetCopy(rs.pkts[i%flows].Data))
				if i%32 == 31 {
					for q := 0; q < queues; q++ {
						for _, p := range nic.Queue(q).Pop(64) {
							p.Release()
						}
					}
				}
			}
		})
	}

	// ebpf: the default pass-to-XSK program through the XDP hook.
	{
		nic := nicsim.New(sim.NewEngine(1), nicsim.Config{Name: "r1", Ifindex: 1, Queues: 1})
		if _, err := core.AttachDefaultProgram(nic); err != nil {
			panic(err)
		}
		out["ebpf.run_ns"] = timeOps(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if _, _, err := nic.Hook.Run(0, rs.pkts[i%flows].Data, 1); err != nil {
					panic(err)
				}
			}
		})
	}

	// afxdp: one frame's full ring cycle — kernel deliver, user receive,
	// recycle and refill, user transmit, kick, kernel drain, reclaim — in
	// batches of 32 like the PMD.
	{
		umem := afxdp.NewUmem(afxdp.DefaultChunks, afxdp.DefaultChunkSize)
		pool := afxdp.NewPool(umem, afxdp.LockSpinBatched)
		x := afxdp.NewXSK(0, 0, umem)
		x.RefillFill(pool, afxdp.DefaultRingSize/2)
		const batch = 32
		descs := make([]afxdp.Desc, batch)
		addrs := make([]uint64, 0, batch)
		emit := func([]byte) {}
		out["afxdp.xsk_cycle_ns"] = timeOps(n, func(lo, hi int) {
			for i := lo; i < hi; i += batch {
				for j := 0; j < batch; j++ {
					x.KernelDeliver(rs.pkts[(i+j)%flows].Data)
				}
				got := x.UserReceive(descs, batch)
				addrs = addrs[:0]
				for _, d := range descs[:got] {
					addrs = append(addrs, d.Addr)
				}
				pool.ReleaseBatch(addrs)
				x.RefillFill(pool, got)
				for j := 0; j < got; j++ {
					addr, ok := pool.Alloc()
					if !ok {
						panic("replay: umem pool exhausted")
					}
					frame := rs.pkts[(i+j)%flows].Data
					copy(umem.Buffer(addr, len(frame)), frame)
					x.UserTransmit(afxdp.Desc{Addr: addr, Len: uint32(len(frame))})
				}
				x.Kick()
				x.ReclaimCompletions(pool, x.KernelDrainTx(afxdp.DefaultRingSize, emit))
			}
		})
	}

	out["flow.extract_ns"] = timeOps(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			flow.Extract(rs.pkts[i%flows])
		}
	})

	// dpcls, smc, emc: the classifier is filled by translating the
	// stream's misses, as upcalls do; the caches are filled from it.
	pl := w.pipeline()
	cls := dpcls.New(7)
	for _, k := range rs.keys {
		if e, _ := cls.Lookup(k); e == nil {
			mf, err := pl.Translate(k)
			if err != nil {
				panic(err)
			}
			cls.Insert(k, mf.Mask, mf.Actions)
		}
	}
	out["dpcls.lookup_ns"] = timeOps(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cls.Lookup(rs.keys[i%flows])
		}
	})
	{
		// Install and remove one megaflow beside the resident ones: the
		// stream's keys moved to an unused input port.
		mf, err := pl.Translate(rs.keys[0])
		if err != nil {
			panic(err)
		}
		mask := flow.NewMaskBuilder().InPort().Build().Union(mf.Mask)
		out["dpcls.insert_remove_ns"] = timeOps(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				k := rs.keys[i%flows]
				k[0] = 99 << 32
				cls.Remove(cls.Insert(k, mask, nil))
			}
		})
	}
	out["ofproto.translate_ns"] = timeOps(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if _, err := pl.Translate(rs.keys[i%flows]); err != nil {
				panic(err)
			}
		}
	})
	{
		c := smc.New(costmodel.SMCEntries, 3)
		for _, k := range rs.keys {
			if e, _ := cls.Lookup(k); e != nil {
				c.Insert(k, e)
			}
		}
		out["smc.lookup_ns"] = timeOps(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				c.Lookup(rs.keys[i%flows])
			}
		})
	}
	{
		c := emc.New[*dpcls.Entry](costmodel.EMCEntries, 1)
		e := &dpcls.Entry{}
		out["emc.insert_ns"] = timeOps(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				c.Insert(rs.keys[i%flows], e)
			}
		})
		out["emc.lookup_ns"] = timeOps(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				c.Lookup(rs.keys[i%flows])
			}
		})
	}

	// conntrack: ct(commit) over the stream; after one pass every call is
	// an established-connection lookup.
	{
		tbl := conntrack.NewTable(sim.NewEngine(1))
		for _, p := range rs.pkts {
			tbl.Process(p, ctZone, true, conntrack.NAT{})
		}
		out["conntrack.process_ns"] = timeOps(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				tbl.Process(rs.pkts[i%flows], ctZone, true, conntrack.NAT{})
			}
		})
	}

	// dpif: the whole fast path behind Execute, warm.
	{
		d := mustOpen("netdev", dpif.Config{Eng: sim.NewEngine(1), Pipeline: w.pipeline()})
		release := func(p *packet.Packet) { p.Release() }
		for id := uint32(2); id <= 3; id++ {
			if err := d.PortAdd(dpif.TxPort{PortID: id, PortName: "sink", Deliver: release}); err != nil {
				panic(err)
			}
		}
		pool := packet.NewPool(64, 64, true)
		exec := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				p := pool.GetCopy(rs.pkts[i%flows].Data)
				p.InPort = 1
				d.Execute(p)
			}
		}
		exec(0, flows)
		out["dpif.execute_ns"] = timeOps(n, exec)
	}
	return out
}

// replayMetrics runs the layer replay and turns each cost into an estimated
// share of the untraced host time per packet.
func replayMetrics(res *result, w workload, sc scale, in *instance, c0, c1 counters) map[string]float64 {
	ns := replayLayers(w, sc, in)
	for name, v := range ns {
		res.layer(name, v)
	}
	pkts := float64(c1.sent - c0.sent)
	per := func(a, b uint64) float64 { return float64(a-b) / pkts }
	wallNs := 1e3 / res.EndToEnd["sim_mpps_wall"].Value // host ns per simulated packet

	emcLookups := per(c1.emcLookups, c0.emcLookups)
	emcMisses := emcLookups - per(c1.emcHits, c0.emcHits) // every miss back-fills the cache
	upcalls := per(c1.upcalls, c0.upcalls)
	nicRx := per(c1.nicRx, c0.nicRx)
	xsk := per(c1.xskDelivered, c0.xskDelivered)
	shares := map[string]float64{
		"sim.est_share":       ns["sim.timer_ns"] * per(c1.events, c0.events),
		"nicsim.est_share":    ns["nicsim.receive_ns"] * nicRx,
		"ebpf.est_share":      ns["ebpf.run_ns"] * xsk,
		"afxdp.est_share":     ns["afxdp.xsk_cycle_ns"] * xsk,
		"flow.est_share":      ns["flow.extract_ns"] * (nicRx + per(c1.processed, c0.processed)),
		"emc.est_share":       ns["emc.lookup_ns"]*emcLookups + ns["emc.insert_ns"]*emcMisses,
		"dpcls.est_share":     ns["dpcls.lookup_ns"]*per(c1.dpclsLookups, c0.dpclsLookups) + ns["dpcls.insert_remove_ns"]*upcalls,
		"ofproto.est_share":   ns["ofproto.translate_ns"] * upcalls,
		"conntrack.est_share": ns["conntrack.process_ns"] * per(c1.ctLookups, c0.ctLookups),
	}
	rest := 1.0
	for name, v := range shares {
		res.layer(name, v/wallNs)
		rest -= v / wallNs
	}
	res.layer("trace.unattributed_share", rest)
	return ns
}
