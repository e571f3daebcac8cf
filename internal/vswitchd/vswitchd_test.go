package vswitchd

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"ovsxdp/internal/core"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/kit"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/openflow"
	"ovsxdp/internal/ovsdb"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

func testDaemon(t *testing.T) (*VSwitchd, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine(1)
	pl := ofproto.NewPipeline()
	d, err := dpif.Open("netdev", dpif.Config{Eng: eng, Pipeline: pl})
	if err != nil {
		t.Fatal(err)
	}
	return New(ovsdb.NewServer(), pl, d), eng
}

// send hands a flow mod to the daemon the way an in-process controller
// does: encoded, through Handle, with no reply expected.
func send(t *testing.T, v *VSwitchd, fm openflow.FlowMod) {
	t.Helper()
	if reply, ok := v.Handle(encode(t, fm)); ok {
		t.Fatalf("flow mod answered with %v", reply.Type)
	}
}

func encode(t *testing.T, fm openflow.FlowMod) openflow.Message {
	t.Helper()
	msg, err := openflow.EncodeFlowMod(fm)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// inPortRule is the flow mod "in_port=in, priority, actions".
func inPortRule(in uint32, priority int, actions ...ofproto.Action) openflow.FlowMod {
	return openflow.FlowMod{Command: openflow.FlowModAdd, Priority: priority,
		Match:   ofproto.NewMatch(flow.Fields{InPort: in}, flow.NewMaskBuilder().InPort().Build()),
		Actions: actions}
}

func TestBridgeAndPortFromOVSDB(t *testing.T) {
	v, _ := testDaemon(t)
	v.DB.Transact([]ovsdb.Op{
		{Op: "insert", Table: ovsdb.TableBridge, Row: ovsdb.Row{"name": "br-int"}},
		{Op: "insert", Table: ovsdb.TableInterface,
			Row: ovsdb.Row{"name": "eth0", "type": "afxdp", "bridge": "br-int"}},
		{Op: "insert", Table: ovsdb.TableInterface,
			Row: ovsdb.Row{"name": "tap0", "type": "tap", "bridge": "br-int"}},
	})
	b, ok := v.Bridge("br-int")
	if !ok {
		t.Fatal("bridge not created")
	}
	if len(b.Ports) != 2 {
		t.Fatalf("ports = %v", b.Ports)
	}
	if v.Datapath.Stats().Ports != 2 {
		t.Fatalf("datapath ports = %d", v.Datapath.Stats().Ports)
	}
}

func TestBadInterfaceTypeRecordsError(t *testing.T) {
	v, _ := testDaemon(t)
	v.DB.Transact([]ovsdb.Op{
		{Op: "insert", Table: ovsdb.TableBridge, Row: ovsdb.Row{"name": "br-int"}},
		{Op: "insert", Table: ovsdb.TableInterface,
			Row: ovsdb.Row{"name": "x0", "type": "quantum", "bridge": "br-int"}},
	})
	rows := v.DB.Rows(ovsdb.TableInterface)
	if len(rows) != 1 || rows[0]["error"] == nil {
		t.Fatalf("interface error not recorded: %+v", rows)
	}
	if v.Datapath.Stats().Ports != 0 {
		t.Fatal("failed port must not attach")
	}
}

func TestDelPort(t *testing.T) {
	v, _ := testDaemon(t)
	v.DB.Transact([]ovsdb.Op{
		{Op: "insert", Table: ovsdb.TableBridge, Row: ovsdb.Row{"name": "br0"}},
		{Op: "insert", Table: ovsdb.TableInterface,
			Row: ovsdb.Row{"name": "tap0", "type": "tap", "bridge": "br0"}},
	})
	if err := v.DelPort("br0", "tap0"); err != nil {
		t.Fatal(err)
	}
	if v.Datapath.Stats().Ports != 0 {
		t.Fatal("port not removed from datapath")
	}
	if err := v.DelPort("br0", "tap0"); err == nil {
		t.Fatal("double delete must fail")
	}
}

func TestOpenFlowSessionInstallsRules(t *testing.T) {
	v, _ := testDaemon(t)
	addr, err := v.ServeOpenFlow("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	conn, err := dialOF(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Features handshake.
	openflow.WriteMessage(conn, openflow.Message{Type: openflow.TypeFeaturesReq, Xid: 5})
	reply, err := readUntil(conn, openflow.TypeFeaturesReply)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := openflow.ParseFeaturesReply(reply); err != nil {
		t.Fatal(err)
	}

	// Install a rule.
	if err := openflow.WriteMessage(conn, encode(t, inPortRule(1, 10, ofproto.Output(2)))); err != nil {
		t.Fatal(err)
	}
	// Echo round trip serializes behind the flow mod.
	openflow.WriteMessage(conn, openflow.EchoRequest(9, nil))
	if _, err := readUntil(conn, openflow.TypeEchoReply); err != nil {
		t.Fatal(err)
	}

	if v.Pipeline.RuleCount() != 1 {
		t.Fatalf("pipeline rules = %d", v.Pipeline.RuleCount())
	}
}

// TestVSwitchdPortIsPolled: a port added over OVSDB while a PMD thread is
// already running must be polled. Frames enter through the NIC, not through
// Execute, so nothing but the thread's own rx loop can move them.
func TestVSwitchdPortIsPolled(t *testing.T) {
	v, eng := testDaemon(t)
	v.Datapath.(*dpif.Netdev).NewPMD(core.ModePoll).Start()
	v.DB.Transact([]ovsdb.Op{
		{Op: "insert", Table: ovsdb.TableBridge, Row: ovsdb.Row{"name": "br0"}},
		{Op: "insert", Table: ovsdb.TableInterface,
			Row: ovsdb.Row{"name": "eth0", "type": "afxdp", "bridge": "br0"}},
		{Op: "insert", Table: ovsdb.TableInterface,
			Row: ovsdb.Row{"name": "eth1", "type": "afxdp", "bridge": "br0"}},
	})
	send(t, v, inPortRule(1, 10, ofproto.Output(2)))
	b, _ := v.Bridge("br0")
	var got [][]byte
	b.Ports["eth1"].OnOutput(func(p *packet.Packet) { got = append(got, p.Data) })

	frame := testPacket(t).Data
	for i := 0; i < 5; i++ {
		b.Ports["eth0"].Inject(packet.New(append([]byte(nil), frame...)))
	}
	eng.RunUntil(sim.Millisecond)
	if len(got) != 5 {
		t.Fatalf("%d of 5 frames crossed the switch; rxq placement:\n%s", len(got), v.Datapath.(*dpif.Netdev).Datapath().PmdRxqShow())
	}
	for _, g := range got {
		if !bytes.Equal(g, frame) {
			t.Fatalf("frame changed in flight: % x", g)
		}
	}
}

// TestMalformedFlowModOverTCP: a well-framed flow mod whose output action is
// too short to hold a port must come back as an OpenFlow error, and the
// connection and the daemon must keep serving.
func TestMalformedFlowModOverTCP(t *testing.T) {
	v, _ := testDaemon(t)
	addr, err := v.ServeOpenFlow("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	conn, err := dialOF(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	body := append(make([]byte, 40), // fixed part
		0x00, 0x01, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, // empty OXM match
		0x00, 0x04, 0x00, 0x0c, 0x00, 0x00, 0x00, 0x00, // apply-actions, length 12
		0x00, 0x00, 0x00, 0x04) // output action, length 4: no port
	openflow.WriteMessage(conn, openflow.Message{Type: openflow.TypeFlowMod, Xid: 7, Body: body})
	reply, err := readUntil(conn, openflow.TypeError)
	if err != nil || reply.Xid != 7 {
		t.Fatalf("no error reply to the malformed flow mod: %+v, %v", reply, err)
	}
	openflow.WriteMessage(conn, openflow.EchoRequest(8, nil))
	if _, err := readUntil(conn, openflow.TypeEchoReply); err != nil {
		t.Fatalf("connection dead after the malformed flow mod: %v", err)
	}
	if v.Pipeline.RuleCount() != 0 {
		t.Fatalf("malformed flow mod was applied: %d rules", v.Pipeline.RuleCount())
	}
}

// dialOF connects and performs the hello exchange.
func dialOF(addr string) (conn netConn, err error) {
	c, err := dialTCP(addr)
	if err != nil {
		return nil, err
	}
	if err := openflow.WriteMessage(c, openflow.Hello(1)); err != nil {
		c.Close()
		return nil, err
	}
	if _, err := readUntil(c, openflow.TypeHello); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

type netConn interface {
	Read([]byte) (int, error)
	Write([]byte) (int, error)
	Close() error
}

func dialTCP(addr string) (netConn, error) {
	var lastErr error
	for i := 0; i < 20; i++ {
		c, err := netDial(addr)
		if err == nil {
			return c, nil
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	return nil, lastErr
}

func readUntil(c netConn, want openflow.MsgType) (openflow.Message, error) {
	for {
		m, err := openflow.ReadMessage(c)
		if err != nil {
			return m, err
		}
		if m.Type == want {
			return m, nil
		}
	}
}

func netDial(addr string) (netConn, error) { return net.Dial("tcp", addr) }

// TestOpenFlowDumpFlows: a dump-flows request (an OFPMP_FLOW multipart
// request) gets the error reply of any unsupported message type, and the
// session keeps serving; the daemon answers no multipart request.
func TestOpenFlowDumpFlows(t *testing.T) {
	v, _ := testDaemon(t)
	addr, err := v.ServeOpenFlow("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	conn, err := dialOF(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const multipartRequest, multipartFlow = 18, 1
	body := make([]byte, 16)
	body[1], body[8] = multipartFlow, 0xff // all tables
	openflow.WriteMessage(conn, openflow.Message{Type: multipartRequest, Xid: 7, Body: body})
	reply, err := readUntil(conn, openflow.TypeError)
	if err != nil || reply.Xid != 7 {
		t.Fatalf("no error reply to the multipart request: %+v, %v", reply, err)
	}
	if want, _ := v.Handle(openflow.Message{Type: 0x7f, Xid: 7}); !bytes.Equal(reply.Body, want.Body) {
		t.Fatalf("multipart error % x, unknown-type error % x", reply.Body, want.Body)
	}
	openflow.WriteMessage(conn, openflow.EchoRequest(8, nil))
	if _, err := readUntil(conn, openflow.TypeEchoReply); err != nil {
		t.Fatalf("connection dead after the multipart request: %v", err)
	}
}

// TestTCPAndInProcessShareHandle: a controller session over TCP and an
// in-process caller send flow mods at once; both go through Handle, and
// every rule lands (run under -race, this checks the daemon's locking).
func TestTCPAndInProcessShareHandle(t *testing.T) {
	v, _ := testDaemon(t)
	addr, err := v.ServeOpenFlow("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	conn, err := dialOF(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const n = 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			msg, err := openflow.EncodeFlowMod(inPortRule(uint32(i), 10, ofproto.Output(1)))
			if err == nil {
				err = openflow.WriteMessage(conn, msg)
			}
			if err != nil {
				done <- err
				return
			}
		}
		openflow.WriteMessage(conn, openflow.EchoRequest(1, nil))
		_, err := readUntil(conn, openflow.TypeEchoReply)
		done <- err
	}()
	for i := 0; i < n; i++ {
		send(t, v, inPortRule(uint32(n+i), 10, ofproto.Output(2)))
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if v.Pipeline.RuleCount() != 2*n {
		t.Fatalf("%d rules, want %d", v.Pipeline.RuleCount(), 2*n)
	}
}

// sinkDaemon builds a daemon over a dpType datapath opened with the
// other_config keys other; its ports are TxPort sinks counting delivery in
// delivered, indexed by port number.
func sinkDaemon(t *testing.T, dpType string, other map[string]string, delivered *[4]int) (*VSwitchd, dpif.Dpif, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine(1)
	pl := ofproto.NewPipeline()
	d, err := dpif.Open(dpType, dpif.Config{Eng: eng, Pipeline: pl, Other: other})
	if err != nil {
		t.Fatal(err)
	}
	v := New(ovsdb.NewServer(), pl, d)
	v.Factory = func(ifType, name string, id uint32, queues int) (*kit.Iface, error) {
		return &kit.Iface{Type: ifType, Port: dpif.TxPort{PortID: id, PortName: name,
			Deliver: func(p *packet.Packet) { delivered[id]++; p.Release() }}}, nil
	}
	return v, d, eng
}

// TestDaemonOverKernelDpif is the point of the provider seam: the exact
// same daemon logic (OVSDB-driven ports, flow mods) drives
// the kernel-module and eBPF datapaths it previously could not.
func TestDaemonOverKernelDpif(t *testing.T) {
	for _, dpType := range []string{"netlink", "ebpf"} {
		t.Run(dpType, func(t *testing.T) {
			var delivered [4]int
			v, d, _ := sinkDaemon(t, dpType, nil, &delivered)
			v.DB.Transact([]ovsdb.Op{
				{Op: "insert", Table: ovsdb.TableBridge, Row: ovsdb.Row{"name": "br0"}},
				{Op: "insert", Table: ovsdb.TableInterface,
					Row: ovsdb.Row{"name": "p0", "type": "internal", "bridge": "br0"}},
				{Op: "insert", Table: ovsdb.TableInterface,
					Row: ovsdb.Row{"name": "p1", "type": "internal", "bridge": "br0"}},
			})
			if v.Datapath.Stats().Ports != 2 {
				t.Fatalf("ports = %d", v.Datapath.Stats().Ports)
			}

			// An OpenFlow rule programs the shared pipeline; traffic
			// installs a datapath flow and is delivered to the TxPort.
			send(t, v, inPortRule(1, 10, ofproto.Output(2)))
			p := testPacket(t)
			d.Execute(p)
			if delivered[2] != 1 {
				t.Fatalf("delivered = %v", delivered)
			}
			if s := d.Stats(); s.Flows != 1 || s.Missed != 1 {
				t.Fatalf("stats = %+v", s)
			}

			// A later flow mod revalidates through the seam: the cached
			// datapath flow stays and drops the next packet without a miss.
			send(t, v, inPortRule(1, 20, ofproto.Drop()))
			if s := d.Stats(); s.Flows != 1 {
				t.Fatalf("flow mod removed the datapath flow: %+v", s)
			}
			d.Execute(testPacket(t))
			if s := d.Stats(); delivered[2] != 1 || s.Missed != 1 || s.Lost != 1 {
				t.Fatalf("after the drop rule: delivered = %v, stats = %+v", delivered, s)
			}
		})
	}
}

func testPacket(t *testing.T) *packet.Packet {
	t.Helper()
	frame := hdr.NewBuilder().
		Eth(hdr.MAC{0x02, 0xaa, 0, 0, 0, 1}, hdr.MAC{0x02, 0xbb, 0, 0, 0, 1}).
		IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
		UDPH(1000, 2000).PadTo(64).Build()
	p := packet.New(frame)
	p.InPort = 1
	return p
}

// TestFlowModRevalidates: a flow mod keeps what it does not change. A
// daemon holds 1,000 megaflows, one per UDP destination port from port 1
// (a drop rule on tp_dst=9 makes every translation read it). A rule for
// another in port leaves them all in place, a rule that turns in_port=1
// into a drop changes every verdict without a miss, and a rule on tp_src,
// which no megaflow reads, deletes them; the next wave installs megaflows
// with that rule's verdicts. The ebpf flavor's megaflows are exact, so
// they read tp_src already and take the new verdicts in place.
func TestFlowModRevalidates(t *testing.T) {
	for _, c := range []struct {
		dpType string
		other  map[string]string
	}{
		{"netdev", nil}, {"netlink", nil}, {"ebpf", nil},
		{"netdev", map[string]string{"hw-offload": "true", "hw-offload-elephant-pps": "1"}},
		{"netdev", map[string]string{"smc-enable": "true", "emc-enable": "false"}},
	} {
		t.Run(fmt.Sprint(c.dpType, c.other), func(t *testing.T) {
			var delivered [4]int
			v, d, eng := sinkDaemon(t, c.dpType, c.other, &delivered)
			v.AddBridge("br0")
			for _, name := range []string{"p1", "p2", "p3"} {
				if _, err := v.AddPort("br0", name, "internal", 1); err != nil {
					t.Fatal(err)
				}
			}
			udp := func(tpSrc, tpDst uint16) ofproto.Match {
				f := flow.Fields{InPort: 1, EthType: hdr.EtherTypeIPv4, IPProto: hdr.IPProtoUDP, TPSrc: tpSrc, TPDst: tpDst}
				mb := flow.NewMaskBuilder().InPort().EthType().IPProto()
				if tpSrc != 0 {
					mb.TPSrc()
				}
				if tpDst != 0 {
					mb.TPDst()
				}
				return ofproto.NewMatch(f, mb.Build())
			}
			send(t, v, inPortRule(1, 10, ofproto.Output(2)))
			send(t, v, openflow.FlowMod{Command: openflow.FlowModAdd, Priority: 20, Match: udp(0, 9), Actions: []ofproto.Action{ofproto.Drop()}})

			// wave sends one packet of each of the 1,000 flows (source port
			// 1000 or 1001, destination port 2000+i) and returns the misses,
			// the losses and the deliveries to ports 2 and 3 it made.
			const n = 1000
			wave := func() [4]int {
				before, was := d.Stats(), delivered
				for i := 0; i < n; i++ {
					p := packet.New(hdr.NewBuilder().Eth(hdr.MAC{2, 0xaa, 0, 0, 0, 1}, hdr.MAC{2, 0xbb, 0, 0, 0, 1}).
						IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
						UDPH(uint16(1000+i%2), uint16(2000+i)).PadTo(64).Build())
					p.InPort = 1
					d.Execute(p)
				}
				eng.RunUntil(eng.Now() + sim.Millisecond)
				after := d.Stats()
				return [4]int{int(after.Missed - before.Missed), int(after.Lost - before.Lost),
					delivered[2] - was[2], delivered[3] - was[3]}
			}
			expect := func(step string, got, want [4]int, flows int) {
				t.Helper()
				if got != want || d.Stats().Flows != flows {
					t.Fatalf("%s: missed/lost/to port 2/to port 3 %v, want %v; %d flows, want %d",
						step, got, want, d.Stats().Flows, flows)
				}
			}
			expect("first wave", wave(), [4]int{n, 0, n, 0}, n)
			expect("second wave", wave(), [4]int{0, 0, n, 0}, n)

			send(t, v, inPortRule(2, 10, ofproto.Output(1)))
			if got := d.Stats().Flows; got != n {
				t.Fatalf("a rule on in_port=2 left %d of the %d megaflows", got, n)
			}
			expect("after a rule on in_port=2", wave(), [4]int{0, 0, n, 0}, n)
			expect("the wave after", wave(), [4]int{0, 0, n, 0}, n)
			if s := d.Stats(); c.other["hw-offload"] == "true" && (s.OffloadHits == 0 || s.OffloadLive == 0) {
				t.Fatalf("the hardware forwards nothing before the drop rule: %+v", s)
			}

			send(t, v, inPortRule(1, 10, ofproto.Drop()))
			expect("after in_port=1 turned into a drop", wave(), [4]int{0, n, 0, 0}, n)

			send(t, v, openflow.FlowMod{Command: openflow.FlowModAdd, Priority: 30, Match: udp(1001, 0), Actions: []ofproto.Action{ofproto.Output(3)}})
			if c.dpType == "ebpf" {
				expect("after a rule on tp_src", wave(), [4]int{0, n / 2, 0, n / 2}, n)
				return
			}
			if got := d.Stats().Flows; got != 0 {
				t.Fatalf("a rule on tp_src left %d of the megaflows that do not read it", got)
			}
			// The rule decides the 500 flows from source port 1001 before
			// any lookup reads tp_dst, so they share one megaflow.
			expect("after a rule on tp_src", wave(), [4]int{n/2 + 1, n / 2, 0, n / 2}, n/2+1)
			expect("the wave after", wave(), [4]int{0, n / 2, 0, n / 2}, n/2+1)
			if c.other["smc-enable"] == "true" && d.Stats().SMCHits == 0 {
				t.Fatal("no packet hit the SMC")
			}
		})
	}
}
