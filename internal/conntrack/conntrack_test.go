package conntrack

import (
	"reflect"
	"runtime"
	"runtime/metrics"
	"testing"
	"testing/quick"
	"unsafe"

	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

var (
	macA = hdr.MAC{0x02, 0, 0, 0, 0, 0x0a}
	macB = hdr.MAC{0x02, 0, 0, 0, 0, 0x0b}
	ipA  = hdr.MakeIP4(10, 0, 0, 1)
	ipB  = hdr.MakeIP4(10, 0, 0, 2)
)

func tcpPkt(src, dst hdr.IP4, sport, dport uint16, flags uint8) *packet.Packet {
	return packet.New(hdr.NewBuilder().Eth(macA, macB).IPv4H(src, dst, 64).
		TCPH(sport, dport, 1, 0, flags).PadTo(64).Build())
}

func udpPkt(src, dst hdr.IP4, sport, dport uint16) *packet.Packet {
	return packet.New(hdr.NewBuilder().Eth(macA, macB).IPv4H(src, dst, 64).
		UDPH(sport, dport).PayloadLen(8).Build())
}

func TestTupleExtractionAndReverse(t *testing.T) {
	tu, ok := TupleOf(tcpPkt(ipA, ipB, 1000, 80, hdr.TCPSyn))
	if !ok {
		t.Fatal("tuple extraction failed")
	}
	if tu.SrcIP != ipA || tu.DstIP != ipB || tu.SrcPort != 1000 || tu.DstPort != 80 || tu.Proto != hdr.IPProtoTCP {
		t.Fatalf("tuple = %s", tu)
	}
	r := tu.Reverse()
	if r.SrcIP != ipB || r.DstPort != 1000 {
		t.Fatalf("reverse = %s", r)
	}
	// ARP is untrackable.
	arp := packet.New(hdr.NewBuilder().Eth(macA, hdr.Broadcast).
		ARPH(hdr.ARPRequest, macA, ipA, hdr.MAC{}, ipB).Build())
	if _, ok := TupleOf(arp); ok {
		t.Fatal("ARP must not produce a tuple")
	}
}

func TestTCPHandshakeStateMachine(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)

	// SYN: new, committed.
	syn := tcpPkt(ipA, ipB, 1000, 80, hdr.TCPSyn)
	ct.Process(syn, 1, true, NAT{})
	if syn.CtState&packet.CtNew == 0 || syn.CtState&packet.CtTracked == 0 {
		t.Fatalf("SYN state = %s", syn.CtState)
	}
	if ct.Len() != 1 || ct.ZoneCount(1) != 1 {
		t.Fatalf("len=%d zone=%d", ct.Len(), ct.ZoneCount(1))
	}

	// SYN-ACK (reply direction).
	synack := tcpPkt(ipB, ipA, 80, 1000, hdr.TCPSyn|hdr.TCPAck)
	ct.Process(synack, 1, false, NAT{})
	if synack.CtState&packet.CtReply == 0 {
		t.Fatalf("SYN-ACK state = %s", synack.CtState)
	}

	// ACK: established.
	ack := tcpPkt(ipA, ipB, 1000, 80, hdr.TCPAck)
	ct.Process(ack, 1, false, NAT{})
	tu, _ := TupleOf(ack)
	c, ok := ct.Find(1, tu)
	if !ok || c.State != StateEstablished {
		t.Fatalf("conn state = %v", c)
	}

	// Subsequent data is flagged established.
	data := tcpPkt(ipA, ipB, 1000, 80, hdr.TCPAck|hdr.TCPPsh)
	ct.Process(data, 1, false, NAT{})
	if data.CtState&packet.CtEstablished == 0 {
		t.Fatalf("data state = %s", data.CtState)
	}
}

func TestMidStreamPacketInvalid(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	ct.Loose = false // strict mode: no mid-stream pickup
	stray := tcpPkt(ipA, ipB, 1000, 80, hdr.TCPAck)
	ct.Process(stray, 1, true, NAT{})
	if stray.CtState&packet.CtInvalid == 0 {
		t.Fatalf("mid-stream state = %s", stray.CtState)
	}
	if ct.Len() != 0 {
		t.Fatal("invalid packet must not create a connection")
	}
}

func TestUncommittedNewNotInstalled(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	syn := tcpPkt(ipA, ipB, 1, 2, hdr.TCPSyn)
	ct.Process(syn, 1, false, NAT{})
	if syn.CtState&packet.CtNew == 0 {
		t.Fatal("uncommitted SYN must classify as new")
	}
	if ct.Len() != 0 {
		t.Fatal("uncommitted connection must not install")
	}
}

func TestZonesAreIndependent(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	ct.Loose = false
	ct.Process(tcpPkt(ipA, ipB, 1, 2, hdr.TCPSyn), 1, true, NAT{})
	// Same 5-tuple, different zone: unknown there.
	p := tcpPkt(ipA, ipB, 1, 2, hdr.TCPAck)
	ct.Process(p, 2, false, NAT{})
	if p.CtState&packet.CtInvalid == 0 {
		t.Fatalf("zone 2 must not see zone 1 state: %s", p.CtState)
	}
	if ct.ZoneCount(1) != 1 || ct.ZoneCount(2) != 0 {
		t.Fatal("zone counts wrong")
	}
}

func TestZoneLimit(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	ct.SetZoneLimit(5, 2)
	for i := 0; i < 4; i++ {
		p := tcpPkt(ipA, ipB, uint16(1000+i), 80, hdr.TCPSyn)
		ct.Process(p, 5, true, NAT{})
		if i < 2 && p.CtState&packet.CtInvalid != 0 {
			t.Fatalf("conn %d should be admitted", i)
		}
		if i >= 2 && p.CtState&packet.CtInvalid == 0 {
			t.Fatalf("conn %d should hit the zone limit", i)
		}
	}
	if ct.ZoneCount(5) != 2 || ct.LimitHits != 2 {
		t.Fatalf("zone=%d hits=%d", ct.ZoneCount(5), ct.LimitHits)
	}
	// Other zones unaffected.
	p := tcpPkt(ipA, ipB, 9999, 80, hdr.TCPSyn)
	ct.Process(p, 6, true, NAT{})
	if p.CtState&packet.CtInvalid != 0 {
		t.Fatal("zone 6 must not be limited")
	}
}

func TestUDPEstablishedOnReply(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	ct.Process(udpPkt(ipA, ipB, 5000, 53), 1, true, NAT{})
	reply := udpPkt(ipB, ipA, 53, 5000)
	ct.Process(reply, 1, false, NAT{})
	if reply.CtState&packet.CtReply == 0 {
		t.Fatalf("reply state = %s", reply.CtState)
	}
	tu, _ := TupleOf(udpPkt(ipA, ipB, 5000, 53))
	if c, _ := ct.Find(1, tu); c.State != StateEstablished {
		t.Fatalf("UDP state = %s", c.State)
	}
}

func TestExpiry(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	ct.Process(udpPkt(ipA, ipB, 1, 2), 1, true, NAT{})
	if ct.Len() != 1 {
		t.Fatal("install failed")
	}
	// Advance beyond the UDP timeout.
	eng.Schedule(TimeoutUDP+sim.Second, func() {})
	eng.Run()
	if n := ct.Sweep(); n != 1 {
		t.Fatalf("swept %d", n)
	}
	if ct.Len() != 0 || ct.ZoneCount(1) != 0 {
		t.Fatal("expired connection lingers")
	}
	// A new packet for it is new again.
	p := udpPkt(ipA, ipB, 1, 2)
	ct.Process(p, 1, false, NAT{})
	if p.CtState&packet.CtNew == 0 {
		t.Fatalf("post-expiry state = %s", p.CtState)
	}
}

func TestRSTClosesConnection(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	ct.Process(tcpPkt(ipA, ipB, 1, 2, hdr.TCPSyn), 1, true, NAT{})
	rst := tcpPkt(ipA, ipB, 1, 2, hdr.TCPRst)
	ct.Process(rst, 1, false, NAT{})
	tu, _ := TupleOf(rst)
	if c, _ := ct.Find(1, tu); c.State != StateClosed {
		t.Fatalf("state after RST = %s", c.State)
	}
}

func TestSNATRewritesAndTranslatesReplies(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	public := hdr.MakeIP4(192, 0, 2, 1)

	// Outbound packet gets its source rewritten.
	out := tcpPkt(ipA, ipB, 1000, 80, hdr.TCPSyn)
	ct.Process(out, 1, true, NAT{Kind: SNAT, Addr: public, Port: 40000})
	eth, _ := hdr.ParseEthernet(out.Data)
	ip, _ := hdr.ParseIPv4(out.Data[eth.HeaderLen:])
	if ip.Src != public {
		t.Fatalf("post-SNAT src = %s", ip.Src)
	}
	tcp, _ := hdr.ParseTCP(out.Data[eth.HeaderLen+ip.HeaderLen:])
	if tcp.SrcPort != 40000 {
		t.Fatalf("post-SNAT sport = %d", tcp.SrcPort)
	}
	if !hdr.VerifyL4Checksum(ip.Src, ip.Dst, hdr.IPProtoTCP, out.Data[eth.HeaderLen+ip.HeaderLen:]) {
		t.Fatal("NAT must fix the L4 checksum")
	}

	// The reply addressed to the public tuple finds the connection and
	// is translated back to the private address.
	reply := tcpPkt(ipB, public, 80, 40000, hdr.TCPSyn|hdr.TCPAck)
	ct.Process(reply, 1, false, NAT{})
	if reply.CtState&packet.CtReply == 0 {
		t.Fatalf("reply not recognized: %s", reply.CtState)
	}
	eth2, _ := hdr.ParseEthernet(reply.Data)
	ip2, _ := hdr.ParseIPv4(reply.Data[eth2.HeaderLen:])
	if ip2.Dst != ipA {
		t.Fatalf("reply dst = %s, want %s (de-NATed)", ip2.Dst, ipA)
	}
}

func TestDNAT(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	backend := hdr.MakeIP4(10, 1, 0, 5)
	in := tcpPkt(ipA, ipB, 1000, 80, hdr.TCPSyn)
	ct.Process(in, 1, true, NAT{Kind: DNAT, Addr: backend})
	eth, _ := hdr.ParseEthernet(in.Data)
	ip, _ := hdr.ParseIPv4(in.Data[eth.HeaderLen:])
	if ip.Dst != backend {
		t.Fatalf("post-DNAT dst = %s", ip.Dst)
	}
}

func TestLooseMidStreamPickup(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	// Default Linux behaviour: a mid-stream ACK creates an established
	// connection.
	ack := tcpPkt(ipA, ipB, 1000, 80, hdr.TCPAck)
	ct.Process(ack, 1, true, NAT{})
	if ack.CtState&packet.CtEstablished == 0 {
		t.Fatalf("loose pickup state = %s", ack.CtState)
	}
	tu, _ := TupleOf(ack)
	c, ok := ct.Find(1, tu)
	if !ok || c.State != StateEstablished {
		t.Fatalf("conn = %+v", c)
	}
}

func TestManyConnectionsStatsAndSweep(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	for i := 0; i < 1000; i++ {
		ct.Process(udpPkt(hdr.IP4(uint32(ipA)+uint32(i%50)), ipB, uint16(1000+i), 53), 3, true, NAT{})
	}
	if ct.Created != 1000 || ct.ZoneCount(3) != 1000 {
		t.Fatalf("created=%d zone=%d", ct.Created, ct.ZoneCount(3))
	}
	eng.Schedule(2*TimeoutUDP, func() {})
	eng.Run()
	if n := ct.Sweep(); n != 1000 {
		t.Fatalf("swept %d", n)
	}
}

func TestTupleReverseProperty(t *testing.T) {
	// Reverse is an involution and never equals the original for
	// asymmetric tuples.
	f := func(srcIP, dstIP uint32, sport, dport uint16) bool {
		tu := Tuple{SrcIP: hdr.IP4(srcIP), DstIP: hdr.IP4(dstIP),
			Proto: hdr.IPProtoTCP, SrcPort: sport, DstPort: dport}
		if tu.Reverse().Reverse() != tu {
			return false
		}
		if srcIP != dstIP || sport != dport {
			return tu.Reverse() != tu
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConnLookupSymmetryProperty(t *testing.T) {
	// Property: after committing any UDP flow, both directions find the
	// same connection.
	f := func(srcIP, dstIP uint32, sport, dport uint16) bool {
		if srcIP == dstIP && sport == dport {
			return true // degenerate self-flow
		}
		eng := sim.NewEngine(1)
		ct := NewTable(eng)
		p := udpPkt(hdr.IP4(srcIP), hdr.IP4(dstIP), sport, dport)
		ct.Process(p, 1, true, NAT{})
		tu, ok := TupleOf(p)
		if !ok {
			return true // unparseable degenerate addressing
		}
		c1, ok1 := ct.Find(1, tu)
		c2, ok2 := ct.Find(1, tu.Reverse())
		return ok1 && ok2 && c1 == c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestConnLayout pins the record layout: what every packet touches (the
// state machine's fields, the deadline and the list links the touch moves)
// ends within the first 48 bytes, the record is at most 56 bytes, an index
// slot is 8 and a bucket of them 64, and no field of a record, a bucket or
// a NAT record holds a pointer (a 56-byte record and two slots of a bucket
// per connection is what the ct workload's live heap is made of, and none
// of it is for the collector to scan).
func TestConnLayout(t *testing.T) {
	var c Conn
	for _, end := range []uintptr{
		unsafe.Offsetof(c.State) + unsafe.Sizeof(c.State),
		unsafe.Offsetof(c.Orig) + unsafe.Sizeof(c.Orig),
		unsafe.Offsetof(c.expires) + unsafe.Sizeof(c.expires),
		unsafe.Offsetof(c.links) + unsafe.Sizeof(c.links),
	} {
		if end > 48 {
			t.Errorf("per-packet fields end at byte %d, want <= 48", end)
		}
	}
	if size := unsafe.Sizeof(c); size > 56 {
		t.Errorf("Conn is %d bytes, want <= 56", size)
	}
	if size := unsafe.Sizeof(slot{}); size != 8 {
		t.Errorf("slot is %d bytes, want 8", size)
	}
	if size := unsafe.Sizeof(bucket{}); size != 64 {
		t.Errorf("bucket is %d bytes, want 64", size)
	}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Interface,
			reflect.Func, reflect.Chan, reflect.String:
			t.Errorf("%s is a %s: a record must hold no pointer", path, typ.Kind())
		}
	}
	walk(reflect.TypeOf(c), "Conn")
	walk(reflect.TypeOf(bucket{}), "bucket")
	walk(reflect.TypeOf(natRec{}), "natRec")
}

// TestConnFootprint: 100k established connections with wheel expiry on cost
// their record and their index slots, under 96 heap bytes each (76 measured
// here): a connection holds no timer of its own and no NAT state it does
// not use.
func TestConnFootprint(t *testing.T) {
	const n = 100_000
	eng := sim.NewEngine(1)
	ack := tcpPkt(ipA, ipB, 1000, 80, hdr.TCPAck)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ct := NewTable(eng)
	ct.EnableWheelExpiry(true)
	for id := 0; id < n; id++ {
		benchPacket(ack, id)
		ct.Process(ack, 1, true, NAT{}) // loose pickup: established
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if ct.Len() != n {
		t.Fatalf("len = %d, want %d", ct.Len(), n)
	}
	per := float64(after.HeapAlloc-before.HeapAlloc) / n
	t.Logf("%.0f heap bytes per connection", per)
	if per >= 96 {
		t.Fatalf("%.0f heap bytes per connection, want < 96", per)
	}
	runtime.KeepAlive(ct)
}

// TestConnTableIsNoscan: 100k established connections with wheel expiry on
// add under 64 KB to the heap the collector scans — the records and the
// index slots hold refs, not pointers.
func TestConnTableIsNoscan(t *testing.T) {
	const n = 100_000
	sample := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	scannable := func() uint64 {
		runtime.GC()
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	eng := sim.NewEngine(1)
	ack := tcpPkt(ipA, ipB, 1000, 80, hdr.TCPAck)
	before := scannable()
	ct := NewTable(eng)
	ct.EnableWheelExpiry(true)
	for id := 0; id < n; id++ {
		benchPacket(ack, id)
		ct.Process(ack, 1, true, NAT{}) // loose pickup: established
	}
	after := scannable()
	if ct.Len() != n {
		t.Fatalf("len = %d, want %d", ct.Len(), n)
	}
	grew := int64(after) - int64(before)
	t.Logf("%d connections add %d scannable heap bytes", n, grew)
	if grew >= 64<<10 {
		t.Fatalf("%d connections add %d scannable heap bytes, want < 64 KB", n, grew)
	}
	runtime.KeepAlive(ct)
}

// TestConnRecordsStayPut: a *Conn from Find stays the connection's record
// while the slab grows across several chunks, with its tuple and state
// kept, and a freed record is handed out again before the slab grows.
func TestConnRecordsStayPut(t *testing.T) {
	eng := sim.NewEngine(1)
	ct := NewTable(eng)
	pkt := func(flags uint8) *packet.Packet { return tcpPkt(ipA, ipB, 2000, 80, flags) }
	ct.Process(pkt(hdr.TCPSyn), 1, true, NAT{})
	tu, _ := TupleOf(pkt(hdr.TCPSyn))
	first, ok := ct.Find(1, tu)
	if !ok {
		t.Fatal("committed connection not found")
	}
	syn := tcpPkt(ipA, ipB, 1000, 80, hdr.TCPSyn)
	const others = 4 * chunkSize
	for id := 0; id < others; id++ {
		benchPacket(syn, id)
		ct.Process(syn, 1, true, NAT{})
		ct.Process(pkt(hdr.TCPAck), 1, false, NAT{})
	}
	if len(ct.slab) < 4 {
		t.Fatalf("slab holds %d chunks, want >= 4", len(ct.slab))
	}
	if got, _ := ct.Find(1, tu); got != first || first.Orig != tu || first.State != StateSynSent {
		t.Fatalf("Find -> %p (was %p): %s in %s, want %s in syn-sent",
			got, first, first.Orig, first.State, tu)
	}

	// An RST closes the connection; a fresh SYN retires its record and
	// commits a new connection, which must take the freed record.
	chunks, recs := len(ct.slab), ct.recs
	ct.Process(pkt(hdr.TCPRst), 1, false, NAT{})
	ct.Process(pkt(hdr.TCPSyn), 1, true, NAT{})
	again, _ := ct.Find(1, tu)
	if ct.Expired != 1 || again != first || first.State != StateSynSent {
		t.Fatalf("expired=%d, reopened record %p (freed %p) in %s, want 1, the freed one, syn-sent",
			ct.Expired, again, first, first.State)
	}
	if len(ct.slab) != chunks || ct.recs != recs {
		t.Fatalf("slab %d chunks / %d refs, was %d / %d: the freed record was not reused",
			len(ct.slab), ct.recs, chunks, recs)
	}
}
