package vswitchd

import (
	"bytes"
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
	m := ofproto.NewMatch(flow.Fields{InPort: 1}, flow.NewMaskBuilder().InPort().Build())
	fm := openflow.EncodeFlowMod(openflow.FlowMod{
		Command: openflow.FlowModAdd, TableID: 0, Priority: 10,
		Match: m, Actions: []ofproto.Action{ofproto.Output(2)}})
	if err := openflow.WriteMessage(conn, fm); err != nil {
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
	if v.FlowMods != 1 {
		t.Fatalf("flow mods = %d", v.FlowMods)
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
	v.ApplyFlowMod(openflow.FlowMod{Command: openflow.FlowModAdd, Priority: 10,
		Match:   ofproto.NewMatch(flow.Fields{InPort: 1}, flow.NewMaskBuilder().InPort().Build()),
		Actions: []ofproto.Action{ofproto.Output(2)}})
	b, _ := v.Bridge("br0")
	var got [][]byte
	b.Ports["eth1"].OnOutput(func(p *packet.Packet) { got = append(got, p.Data) })

	frame := testPacket(t).Data
	for i := 0; i < 5; i++ {
		b.Ports["eth0"].Inject(packet.New(append([]byte(nil), frame...)))
	}
	eng.RunUntil(sim.Millisecond)
	if len(got) != 5 {
		t.Fatalf("%d of 5 frames crossed the switch; rxq placement:\n%s", len(got), v.Datapath.PmdRxqShow())
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
	if v.Pipeline.RuleCount() != 0 || v.FlowMods != 0 {
		t.Fatalf("malformed flow mod was applied: %d rules, %d flow mods", v.Pipeline.RuleCount(), v.FlowMods)
	}
}

func TestGuardRecoversCrash(t *testing.T) {
	v, _ := testDaemon(t)
	restarted := false
	v.OnRestart = func() { restarted = true }

	crashed := v.Guard(func() { panic("geneve parser null deref") })
	if !crashed {
		t.Fatal("crash not detected")
	}
	if v.Crashes != 1 || v.Restarts != 1 || !restarted {
		t.Fatalf("crashes=%d restarts=%d", v.Crashes, v.Restarts)
	}
	// The daemon keeps working afterwards.
	if v.Guard(func() {}) {
		t.Fatal("healthy call reported as crash")
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

func TestOpenFlowDumpFlows(t *testing.T) {
	v, _ := testDaemon(t)
	// Install two rules directly.
	v.ApplyFlowMod(openflow.FlowMod{Command: openflow.FlowModAdd, TableID: 0, Priority: 10,
		Match:   ofproto.NewMatch(flow.Fields{InPort: 1}, flow.NewMaskBuilder().InPort().Build()),
		Actions: []ofproto.Action{ofproto.Output(2)}})
	v.ApplyFlowMod(openflow.FlowMod{Command: openflow.FlowModAdd, TableID: 5, Priority: 20,
		Match:   ofproto.NewMatch(flow.Fields{InPort: 2}, flow.NewMaskBuilder().InPort().Build()),
		Actions: []ofproto.Action{ofproto.Drop()}})

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

	openflow.WriteMessage(conn, openflow.FlowStatsRequest(7, 0xff))
	reply, err := readUntil(conn, openflow.TypeMultipartReply)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := openflow.ParseFlowStatsReply(reply)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("dump-flows returned %d entries", len(entries))
	}

	// Single-table dump.
	openflow.WriteMessage(conn, openflow.FlowStatsRequest(8, 5))
	reply, err = readUntil(conn, openflow.TypeMultipartReply)
	if err != nil {
		t.Fatal(err)
	}
	entries, _ = openflow.ParseFlowStatsReply(reply)
	if len(entries) != 1 || entries[0].Table != 5 || entries[0].Priority != 20 {
		t.Fatalf("table-5 dump = %+v", entries)
	}
}

// kernelDaemon builds a daemon over the given kernel-side dpif provider
// ("netlink" or "ebpf"); ports are TxPort sinks counting delivery.
func kernelDaemon(t *testing.T, dpType string, delivered *int) (*VSwitchd, dpif.Dpif) {
	t.Helper()
	eng := sim.NewEngine(1)
	pl := ofproto.NewPipeline()
	d, err := dpif.Open(dpType, dpif.Config{Eng: eng, Pipeline: pl})
	if err != nil {
		t.Fatal(err)
	}
	v := New(ovsdb.NewServer(), pl, d)
	v.Factory = func(ifType, name string, id uint32, queues int) (*kit.Iface, error) {
		return &kit.Iface{Type: ifType, Port: dpif.TxPort{PortID: id, PortName: name,
			Deliver: func(*packet.Packet) { *delivered++ }}}, nil
	}
	return v, d
}

// TestDaemonOverKernelDpif is the point of the provider seam: the exact
// same daemon logic (OVSDB-driven ports, flow mods, crash restart) drives
// the kernel-module and eBPF datapaths it previously could not.
func TestDaemonOverKernelDpif(t *testing.T) {
	for _, dpType := range []string{"netlink", "ebpf"} {
		t.Run(dpType, func(t *testing.T) {
			delivered := 0
			v, d := kernelDaemon(t, dpType, &delivered)
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
			v.ApplyFlowMod(openflow.FlowMod{Command: openflow.FlowModAdd, TableID: 0, Priority: 10,
				Match:   ofproto.NewMatch(flow.Fields{InPort: 1}, flow.NewMaskBuilder().InPort().Build()),
				Actions: []ofproto.Action{ofproto.Output(2)}})
			p := testPacket(t)
			d.Execute(p)
			if delivered != 1 {
				t.Fatalf("delivered = %d", delivered)
			}
			if s := d.Stats(); s.Flows != 1 || s.Missed != 1 {
				t.Fatalf("stats = %+v", s)
			}

			// A later flow mod revalidates: the cached datapath flow is
			// flushed through the seam.
			v.ApplyFlowMod(openflow.FlowMod{Command: openflow.FlowModAdd, TableID: 0, Priority: 20,
				Match:   ofproto.NewMatch(flow.Fields{InPort: 1}, flow.NewMaskBuilder().InPort().Build()),
				Actions: []ofproto.Action{ofproto.Drop()}})
			if s := d.Stats(); s.Flows != 0 {
				t.Fatalf("flow mod did not flush datapath flows: %+v", s)
			}

			// Crash recovery flushes through the seam too.
			v.Guard(func() { panic("boom") })
			if v.Restarts != 1 {
				t.Fatalf("restarts = %d", v.Restarts)
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
