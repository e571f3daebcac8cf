package core

import (
	"testing"

	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/sim"
)

// sinkPort is an output-only port for direct-execution tests: deliveries
// are counted, nothing is charged, nothing is queued.
type sinkPort struct {
	id    uint32
	name  string
	recvd int
}

func (s *sinkPort) ID() uint32                             { return s.id }
func (s *sinkPort) Name() string                           { return s.name }
func (s *sinkPort) NumRxQueues() int                       { return 0 }
func (s *sinkPort) NumTxQueues() int                       { return 0 }
func (s *sinkPort) Rx(*sim.CPU, int, int) []*packet.Packet { return nil }
func (s *sinkPort) Tx(_ *sim.CPU, _ int, p *packet.Packet) { s.recvd++ }
func (s *sinkPort) Flush(*sim.CPU, int)                    {}
func (s *sinkPort) Arm(int, func())                        {}

// inPkt is udpPkt arriving on port 1 (Execute bypasses the rx path that
// normally stamps InPort).
func inPkt(sport uint16) *packet.Packet {
	p := udpPkt(sport)
	p.InPort = 1
	return p
}

// outputPipeline sends in_port=1 to the given port.
func outputPipeline(out uint32) *ofproto.Pipeline {
	pl := ofproto.NewPipeline()
	pl.AddRule(&ofproto.Rule{TableID: 0, Priority: 1,
		Match: ofproto.NewMatch(flow.Fields{InPort: 1},
			flow.NewMaskBuilder().InPort().Build()),
		Actions: []ofproto.Action{ofproto.Output(out)}})
	return pl
}

// TestSMCServesRepeatTraffic checks the signature cache resolves repeat
// packets when the EMC is out of the picture: one upcall installs the
// megaflow and registers it in the SMC; every successor is an SMC hit.
func TestSMCServesRepeatTraffic(t *testing.T) {
	eng := sim.NewEngine(1)
	dp := NewDatapath(eng, outputPipeline(2), Options{})
	dp.ConfigureEMC(false)
	dp.ConfigureSMC(true)
	out := &sinkPort{id: 2, name: "out"}
	dp.AddPort(&sinkPort{id: 1, name: "in"})
	dp.AddPort(out)

	for i := 0; i < 8; i++ {
		dp.Execute(inPkt(7777))
	}
	if out.recvd != 8 {
		t.Fatalf("delivered %d/8", out.recvd)
	}
	st := dp.PMDs()[0].Perf
	if dp.Upcalls != 1 || st.SMCHits != 7 || st.EMCHits != 0 {
		t.Fatalf("upcalls=%d smcHits=%d emcHits=%d, want 1/7/0",
			dp.Upcalls, st.SMCHits, st.EMCHits)
	}
}

// TestSMCInvalidationPreventsStaleDelivery is the safety property behind
// the 16-bit indirection: after a megaflow is removed (flow delete or a
// revalidator sweep) and its SMC index invalidated, the next packet of that
// flow must take a fresh upcall and follow the NEW forwarding decision —
// never resolve through the stale cache entry to the old output port.
func TestSMCInvalidationPreventsStaleDelivery(t *testing.T) {
	eng := sim.NewEngine(1)
	dp := NewDatapath(eng, outputPipeline(2), Options{})
	dp.ConfigureEMC(false)
	dp.ConfigureSMC(true)
	oldOut := &sinkPort{id: 2, name: "old"}
	newOut := &sinkPort{id: 3, name: "new"}
	dp.AddPort(&sinkPort{id: 1, name: "in"})
	dp.AddPort(oldOut)
	dp.AddPort(newOut)

	// Warm: the flow resolves through the SMC to port 2.
	for i := 0; i < 4; i++ {
		dp.Execute(inPkt(7777))
	}
	if oldOut.recvd != 4 || dp.PMDs()[0].Perf.SMCHits != 3 {
		t.Fatalf("warm phase: delivered=%d smcHits=%d, want 4/3", oldOut.recvd, dp.PMDs()[0].Perf.SMCHits)
	}

	// Revalidation: the megaflow is removed and the forwarding decision
	// changes to port 3 (the rule update that made the old flow stale).
	m := dp.PMDs()[0]
	entries := m.Classifier().Refs(nil)
	if len(entries) != 1 {
		t.Fatalf("installed flows = %d, want 1", len(entries))
	}
	e := entries[0]
	if !m.Classifier().Remove(e) {
		t.Fatal("Remove reported the flow missing")
	}
	m.emc.Flush()
	m.smc.Invalidate(e)
	pl2 := outputPipeline(3)
	dp.SetUpcall(pl2.Translate)

	// The same flow again: the stale SMC index must miss, forcing a fresh
	// upcall against the new pipeline; nothing may reach the old port.
	for i := 0; i < 4; i++ {
		dp.Execute(inPkt(7777))
	}
	if oldOut.recvd != 4 {
		t.Fatalf("stale SMC entry mis-delivered: old port got %d packets, want 4", oldOut.recvd)
	}
	if newOut.recvd != 4 {
		t.Fatalf("new port got %d/4 packets after revalidation", newOut.recvd)
	}
	if dp.Upcalls != 2 {
		t.Fatalf("upcalls = %d, want 2 (invalidated index must not serve)", dp.Upcalls)
	}
	if m.Perf.SMCHits != 6 {
		t.Fatalf("smcHits = %d, want 6 (3 before + 3 after reinstall)", m.Perf.SMCHits)
	}
}
