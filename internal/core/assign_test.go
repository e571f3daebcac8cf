package core

import (
	"strings"
	"testing"

	"ovsxdp/internal/nicsim"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/sim"
)

// assignBed is a minimal datapath for assignment-layer tests: PMD threads
// plus a multi-queue DPDK rx port, no traffic.
func newAssignBed(t *testing.T, pmds, queues int) (*Datapath, *DPDKPort, []*PMD) {
	t.Helper()
	eng := sim.NewEngine(1)
	nic := nicsim.New(eng, nicsim.Config{Name: "p0", Ifindex: 1, Queues: queues})
	dp := NewDatapath(eng, forwardPipeline(), Options{})
	port := NewDPDKPort(1, nic)
	dp.AddPort(port)
	threads := make([]*PMD, pmds)
	for i := range threads {
		threads[i] = dp.NewPMD(ModePoll, nil)
	}
	return dp, port, threads
}

// Hand placement once silently accepted duplicate (port, queue) pairs,
// polling the same queue from two threads. The assignment layer must reject
// duplicates on the same thread and across threads.
func TestAssignRejectsDuplicates(t *testing.T) {
	dp, port, ms := newAssignBed(t, 2, 2)
	if err := dp.AssignRxqTo(ms[0], port, 0); err != nil {
		t.Fatalf("first assignment: %v", err)
	}
	if err := dp.AssignRxqTo(ms[0], port, 0); err == nil {
		t.Fatal("same-thread duplicate accepted")
	}
	err := dp.AssignRxqTo(ms[1], port, 0)
	if err == nil {
		t.Fatal("cross-thread duplicate accepted")
	}
	if !strings.Contains(err.Error(), "already assigned to pmd0") {
		t.Fatalf("duplicate error should name the owner, got: %v", err)
	}
	// The failed assignments must not have grown any poll list.
	if len(ms[0].Rxqs()) != 1 || len(ms[1].Rxqs()) != 0 {
		t.Fatalf("poll lists after duplicates: %d/%d, want 1/0",
			len(ms[0].Rxqs()), len(ms[1].Rxqs()))
	}
}

func TestAssignValidatesQueueAndOwnership(t *testing.T) {
	dp, port, ms := newAssignBed(t, 1, 2)
	if err := dp.AssignRxqTo(ms[0], port, 2); err == nil {
		t.Fatal("out-of-range queue accepted")
	}
	if err := dp.AssignRxqTo(ms[0], port, -1); err == nil {
		t.Fatal("negative queue accepted")
	}
	// A PMD from a different datapath must be rejected.
	other, _, foreign := newAssignBed(t, 1, 2)
	_ = other
	dp2, port2, _ := newAssignBed(t, 1, 2)
	if err := dp2.AssignRxqTo(foreign[0], port2, 0); err == nil {
		t.Fatal("foreign PMD accepted")
	}
	_ = port2
}

func TestUnassignThenReassign(t *testing.T) {
	dp, port, ms := newAssignBed(t, 2, 2)
	if err := dp.AssignRxqTo(ms[0], port, 0); err != nil {
		t.Fatal(err)
	}
	if err := dp.UnassignRxq(port, 0); err != nil {
		t.Fatalf("unassign: %v", err)
	}
	if err := dp.UnassignRxq(port, 0); err == nil {
		t.Fatal("double unassign accepted")
	}
	if err := dp.AssignRxqTo(ms[1], port, 0); err != nil {
		t.Fatalf("reassign after unassign: %v", err)
	}
	if len(ms[0].Rxqs()) != 0 || len(ms[1].Rxqs()) != 1 {
		t.Fatalf("poll lists: %d/%d, want 0/1", len(ms[0].Rxqs()), len(ms[1].Rxqs()))
	}
}

func TestRoundRobinDistribution(t *testing.T) {
	dp, port, ms := newAssignBed(t, 2, 4)
	if err := dp.DistributeRxqs(port); err != nil {
		t.Fatal(err)
	}
	// Round-robin in queue order: pmd0 gets q0,q2; pmd1 gets q1,q3.
	want := [][]int{{0, 2}, {1, 3}}
	for i, m := range ms {
		qs := m.Rxqs()
		if len(qs) != 2 || qs[0].Queue != want[i][0] || qs[1].Queue != want[i][1] {
			t.Fatalf("pmd%d polls %v, want queues %v", i, qs, want[i])
		}
	}
}

func TestCyclesColdStartBalancesByCount(t *testing.T) {
	dp, port, ms := newAssignBed(t, 2, 4)
	dp.SetAssignPolicy(AssignCycles)
	if err := dp.DistributeRxqs(port); err != nil {
		t.Fatal(err)
	}
	// No cycle history yet: the cycles policy must still spread queues, not
	// pile everything on thread 0.
	if len(ms[0].Rxqs()) != 2 || len(ms[1].Rxqs()) != 2 {
		t.Fatalf("cold-start cycles split %d/%d, want 2/2",
			len(ms[0].Rxqs()), len(ms[1].Rxqs()))
	}
}

func TestParseAssignPolicy(t *testing.T) {
	if p, err := ParseAssignPolicy("cycles"); err != nil || p != AssignCycles {
		t.Fatalf("cycles: %v %v", p, err)
	}
	if p, err := ParseAssignPolicy("roundrobin"); err != nil || p != AssignRoundRobin {
		t.Fatalf("roundrobin: %v %v", p, err)
	}
	if _, err := ParseAssignPolicy("random"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// rebalance runs one balancer pass now (the ovs-appctl
// dpif-netdev/pmd-rxq-rebalance analog) and returns the number of queues it
// moved.
func rebalance(d *Datapath) int {
	before := d.assignerInit().RebalanceMoves
	d.autoLBTick()
	return int(d.assign.RebalanceMoves - before)
}

// TestManualRebalance skews the measured interval cycles onto one thread and
// checks the greedy bin-pack's deterministic outcome.
func TestManualRebalance(t *testing.T) {
	dp, port, ms := newAssignBed(t, 2, 4)
	for q := 0; q < 4; q++ {
		if err := dp.AssignRxqTo(ms[0], port, q); err != nil {
			t.Fatal(err)
		}
	}
	for q, cycles := range []sim.Time{400, 300, 200, 100} {
		dp.assign.rxqs[RxQueue{Port: port, Queue: q}].intervalCycles = cycles
	}
	moved := rebalance(dp)
	if moved == 0 {
		t.Fatal("rebalance moved nothing off a 4-queue/0-queue split")
	}
	// Greedy heaviest-first: q0(400)->pmd0, q1(300)->pmd1, q2(200)->pmd1,
	// q3(100)->pmd0. Loads 500/500.
	q0 := dp.assign.rxqs[RxQueue{Port: port, Queue: 0}].pmd
	q1 := dp.assign.rxqs[RxQueue{Port: port, Queue: 1}].pmd
	q2 := dp.assign.rxqs[RxQueue{Port: port, Queue: 2}].pmd
	q3 := dp.assign.rxqs[RxQueue{Port: port, Queue: 3}].pmd
	if q0 != ms[0] || q1 != ms[1] || q2 != ms[1] || q3 != ms[0] {
		t.Fatalf("bin-pack placed q0..q3 on pmd %d,%d,%d,%d; want 0,1,1,0",
			q0.ID, q1.ID, q2.ID, q3.ID)
	}
	reb, movedTotal, _ := dp.RebalanceStats()
	if reb != 1 || int(movedTotal) != moved {
		t.Fatalf("stats: rebalances=%d moves=%d, want 1/%d", reb, movedTotal, moved)
	}
}

// TestRebalanceRespectsThreshold: a balanced load must dry-run, not move.
func TestRebalanceRespectsThreshold(t *testing.T) {
	dp, port, ms := newAssignBed(t, 2, 2)
	if err := dp.DistributeRxqs(port); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 2; q++ {
		dp.assign.rxqs[RxQueue{Port: port, Queue: q}].intervalCycles = 500
	}
	if moved := rebalance(dp); moved != 0 {
		t.Fatalf("balanced load moved %d queues", moved)
	}
	_, _, dry := dp.RebalanceStats()
	if dry != 1 {
		t.Fatalf("dry-runs = %d, want 1", dry)
	}
	_ = ms
}

// xpsPort is a stub with a configurable tx queue count.
type xpsPort struct {
	txqs int
}

func (p *xpsPort) ID() uint32                             { return 9 }
func (p *xpsPort) Name() string                           { return "xps" }
func (p *xpsPort) NumRxQueues() int                       { return 1 }
func (p *xpsPort) NumTxQueues() int                       { return p.txqs }
func (p *xpsPort) Rx(*sim.CPU, int, int) []*packet.Packet { return nil }
func (p *xpsPort) Tx(*sim.CPU, int, *packet.Packet)       {}
func (p *xpsPort) Flush(*sim.CPU, int)                    {}
func (p *xpsPort) Arm(int, func())                        {}

func TestXPSTxqMappingAndContention(t *testing.T) {
	dp, _, ms := newAssignBed(t, 3, 1)
	shared := &xpsPort{txqs: 2}
	unlimited := &xpsPort{txqs: 0}

	// 3 threads over 2 txqs: thread id modulo queue count, contended.
	for i, want := range []int{0, 1, 0} {
		if got := dp.TxqFor(ms[i], shared); got != want {
			t.Fatalf("TxqFor(pmd%d) = %d, want %d", i, got, want)
		}
	}
	if !dp.txqContended(shared) {
		t.Fatal("2 txqs under 3 threads must be contended")
	}
	// Function-delivery ports (no txq limit) are never contended.
	if dp.txqContended(unlimited) {
		t.Fatal("unlimited port reported contended")
	}
	if got := dp.TxqFor(ms[2], unlimited); got != 2 {
		t.Fatalf("TxqFor on unlimited port = %d, want thread id 2", got)
	}
}

// The shared-txq spinlock counts contention per packet but charges at flush
// time, once per burst.
func TestChargeTxLockCountsContention(t *testing.T) {
	dp, _, ms := newAssignBed(t, 3, 1)
	shared := &xpsPort{txqs: 1}
	dp.chargeTxLock(ms[0], shared)
	if ms[0].Perf.TxContended != 1 || ms[0].Perf.TxLockCycles != 0 {
		t.Fatalf("contended=%d lock-cycles=%d, want 1/0",
			ms[0].Perf.TxContended, ms[0].Perf.TxLockCycles)
	}
	dp.chargeTxLock(ms[0], &xpsPort{txqs: 0})
	if ms[0].Perf.TxContended != 1 {
		t.Fatalf("an unlimited port counted as contended: %d", ms[0].Perf.TxContended)
	}
}

func TestPmdRxqShowRendersAssignments(t *testing.T) {
	dp, port, _ := newAssignBed(t, 2, 2)
	if err := dp.DistributeRxqs(port); err != nil {
		t.Fatal(err)
	}
	out := dp.PmdRxqShow()
	for _, want := range []string{
		"rxq assignment policy: roundrobin",
		"pmd thread pmd0:",
		"pmd thread pmd1:",
		"queue-id:  0",
		"queue-id:  1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("pmd-rxq-show missing %q:\n%s", want, out)
		}
	}
}

// A deleted port must stop forwarding: RemovePort used to drop only the
// port-map entry, so the port's queues stayed on their threads' poll lists
// and in the assigner's map, and traffic arriving on it was still polled,
// classified and delivered.
func TestRemovePortStopsPolling(t *testing.T) {
	dp, port, ms := newAssignBed(t, 2, 2)
	eng := dp.Eng
	delivered := 0
	nicB := nicsim.New(eng, nicsim.Config{Name: "p1", Ifindex: 2, Queues: 1})
	nicB.ConnectWire(func(*packet.Packet) { delivered++ })
	dp.AddPort(NewDPDKPort(2, nicB))
	if err := dp.DistributeRxqs(port); err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		m.Start()
	}
	offer := func() {
		for i := 0; i < 10; i++ {
			port.nic.Receive(udpPkt(uint16(7000 + i))) // ten flows, spread over both queues
		}
		eng.RunUntil(eng.Now() + sim.Millisecond)
	}

	offer()
	if dp.Processed != 10 || delivered != 10 {
		t.Fatalf("before removal: processed %d delivered %d, want 10/10", dp.Processed, delivered)
	}
	dp.RemovePort(port.ID())
	offer()
	if dp.Processed != 10 || delivered != 10 {
		t.Fatalf("after removal: processed %d delivered %d, want still 10/10", dp.Processed, delivered)
	}
	if n := len(ms[0].Rxqs()) + len(ms[1].Rxqs()); n != 0 {
		t.Fatalf("%d rx queues of the removed port are still polled", n)
	}
	if out := dp.PmdRxqShow(); strings.Contains(out, port.Name()) {
		t.Fatalf("pmd-rxq-show still lists the removed port:\n%s", out)
	}
	// The queues are free again: re-adding the port may place them anew.
	dp.AddPort(port)
	if err := dp.DistributeRxqs(port); err != nil {
		t.Fatalf("re-adding the port: %v", err)
	}
}
