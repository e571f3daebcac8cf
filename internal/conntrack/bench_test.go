package conntrack

import (
	"encoding/binary"
	"testing"

	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

// The microbenchmarks run the repository benchmark's ct workload shape —
// 100k connections over the default 8 shards — through Process, visiting
// connections with a large odd stride so that, as there, successive packets
// share no slot or record cache line.
const (
	benchConns  = 100_000
	benchStride = 40_503
)

// benchPacket points p, a TCP frame built by tcpPkt, at connection id: the
// id is the low 24 bits of the source address.
func benchPacket(p *packet.Packet, id int) {
	binary.BigEndian.PutUint32(p.Data[hdr.EthernetSize+12:], 0x0a000000|uint32(id)&0xffffff)
}

// benchTable commits benchConns connections, ids 0..benchConns-1.
func benchTable(eng *sim.Engine) *Table {
	ct := NewTable(eng)
	syn := tcpPkt(ipA, ipB, 1000, 80, hdr.TCPSyn)
	for id := 0; id < benchConns; id++ {
		benchPacket(syn, id)
		ct.Process(syn, 1, true, NAT{})
	}
	return ct
}

// BenchmarkConntrackLookupHit100k: one packet of an existing connection —
// extract, lookup, state machine, LRU touch.
func BenchmarkConntrackLookupHit100k(b *testing.B) {
	ct := benchTable(sim.NewEngine(1))
	ack := tcpPkt(ipA, ipB, 1000, 80, hdr.TCPAck)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPacket(ack, i*benchStride%benchConns)
		ct.Process(ack, 1, false, NAT{})
	}
	if ct.Len() != benchConns || ack.CtState&packet.CtInvalid != 0 {
		b.Fatalf("len=%d state=%s: the lookups did not hit", ct.Len(), ack.CtState)
	}
}

// BenchmarkConntrackLookupMiss100k: one uncommitted packet of an unknown
// connection — extract and a probe that ends at a free slot.
func BenchmarkConntrackLookupMiss100k(b *testing.B) {
	ct := benchTable(sim.NewEngine(1))
	ack := tcpPkt(ipA, ipB, 1000, 80, hdr.TCPAck)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPacket(ack, benchConns+i*benchStride%benchConns)
		ct.Process(ack, 1, false, NAT{})
	}
	if ct.Len() != benchConns || ct.Created != benchConns {
		b.Fatalf("len=%d created=%d: the lookups did not all miss", ct.Len(), ct.Created)
	}
}

// BenchmarkConntrackCommitExpire100k: the steady state of connection churn
// under wheel expiry — each iteration commits one new connection and lets
// virtual time pass until the oldest one's timer removes it, so the table
// holds benchConns connections throughout.
func BenchmarkConntrackCommitExpire100k(b *testing.B) {
	const gap = 10 * sim.Microsecond
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	ct.Timeouts.SynSent = benchConns * gap
	ct.EnableWheelExpiry(true)
	syn := tcpPkt(ipA, ipB, 1000, 80, hdr.TCPSyn)
	step := func(id int) {
		eng.RunUntil(eng.Now() + gap)
		benchPacket(syn, id)
		ct.Process(syn, 1, true, NAT{})
	}
	for id := 0; id < 2*benchConns; id++ {
		step(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(2*benchConns + i)
	}
	if ct.Len() != benchConns || ct.Created != uint64(2*benchConns+b.N) {
		b.Fatalf("len=%d created=%d: not one commit and one expiry per iteration", ct.Len(), ct.Created)
	}
}

// BenchmarkCtExtract: the tuple reader alone, on the TCP frame the ct
// workload sends.
func BenchmarkCtExtract(b *testing.B) {
	p := tcpPkt(ipA, ipB, 1000, 80, hdr.TCPAck)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPacket(p, i)
		if _, _, _, ok := extract(p); !ok {
			b.Fatal("frame rejected")
		}
	}
}
