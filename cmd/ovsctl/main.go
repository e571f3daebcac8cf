// Command ovsctl demonstrates the control plane end to end over real TCP:
// it starts an in-process vswitchd with OVSDB and OpenFlow listeners, then
// acts as the management client — creating a bridge and ports through
// OVSDB and installing flows through OpenFlow, exactly the two protocols
// the NSX agent drives OVS with (Section 4).
//
// The daemon reaches its datapath only through the dpif provider layer, so
// every subcommand works identically against the userspace ("netdev"),
// kernel-module ("netlink"), and eBPF ("ebpf") datapaths.
//
// Usage:
//
//	ovsctl [-datapath netdev|netlink|ebpf] demo
//	ovsctl [-datapath ...] show           # bridge/port summary (ovs-vsctl show)
//	ovsctl [-datapath ...] dump-flows     # installed megaflows (dpctl/dump-flows)
//	ovsctl [-datapath ...] dpctl-stats    # datapath counters (ovs-dpctl show)
//	ovsctl [-datapath ...] pmd-perf-show  # per-thread stage cycles (dpif-netdev/pmd-perf-show)
//	ovsctl [-datapath ...] pmd-perf-trace # last packet lifecycles through the fast path
//	ovsctl [-datapath ...] fault-demo     # bounded upcall queue + injected slow-path fault
//
// Every datapath tunable is an other_config key given as -o key=value
// (repeatable; `ovsctl get` lists the keys) and applies to any subcommand.
// -o upcall-queue-cap=N -o upcall-service-us=N bound the slow path: misses
// park packets in a bounded per-thread queue serviced at that interval, and
// overflow is counted as queue drops (the kernel's ENOBUFS analog) instead
// of growing without limit. -o smc-enable=true -o emc-enable=false shape
// the userspace cache hierarchy — the signature match cache between the EMC
// and the megaflow classifier — and reach only the netdev datapath, exactly
// as in OVS.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"sort"

	"ovsxdp/internal/api"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/faultinject"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/openflow"
	"ovsxdp/internal/ovsdb"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/perf"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/vswitchd"
	"ovsxdp/ovs"
)

func usage() {
	fmt.Fprintf(os.Stderr, "usage: ovsctl [-datapath %v] [-o key=value]... demo|show|dump-flows|dpctl-stats|pmd-perf-show|pmd-perf-trace|pmd-rxq-show|fault-demo|set key=value...|get [key]\n",
		dpif.Types())
}

// cliConfig carries the -o other_config key/value pairs into every
// subcommand.
type cliConfig map[string]string

func main() {
	dpType := flag.String("datapath", "netdev", "dpif provider type")
	cfg := cliConfig{}
	flag.Func("o", "other_config key=value applied at open (repeatable; `ovsctl get` lists keys)", func(s string) error {
		k, v, err := api.ParseConfigArg(s)
		if err != nil {
			return err
		}
		cfg[k] = v
		return nil
	})
	flag.Usage = usage
	flag.Parse()

	var err error
	switch flag.Arg(0) {
	case "demo":
		err = demo(*dpType, cfg)
	case "show":
		err = show(*dpType, cfg)
	case "dump-flows":
		err = dumpFlows(*dpType, cfg)
	case "dpctl-stats":
		err = dpctlStats(*dpType, cfg)
	case "pmd-perf-show":
		err = pmdPerfShow(*dpType, cfg)
	case "pmd-perf-trace":
		err = pmdPerfTrace(*dpType, cfg)
	case "pmd-rxq-show":
		err = pmdRxqShow(*dpType, cfg)
	case "fault-demo":
		err = faultDemo(*dpType, cfg)
	case "set":
		err = setConfig(*dpType, cfg, flag.Args()[1:])
	case "get":
		err = getConfig(*dpType, cfg, flag.Args()[1:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ovsctl:", err)
		os.Exit(1)
	}
}

// env is the in-process switch: engine, datapath (via the dpif registry),
// database, and daemon.
type env struct {
	eng    *sim.Engine
	dp     dpif.Dpif
	db     *ovsdb.Server
	daemon *vswitchd.VSwitchd
}

func newEnv(dpType string, cfg cliConfig) (*env, error) {
	eng := sim.NewEngine(1)
	pl := ofproto.NewPipeline()
	d, err := dpif.Open(dpType, dpif.Config{Eng: eng, Pipeline: pl, Other: cfg})
	if err != nil {
		return nil, err
	}
	db := ovsdb.NewServer()
	return &env{eng: eng, dp: d, db: db, daemon: vswitchd.New(db, pl, d)}, nil
}

// demoFlow is the rule every subcommand installs, as ovs-ofctl would send
// it: the text parser's rule turned into an OpenFlow flow mod.
func demoFlow() openflow.FlowMod {
	rule, err := ovs.ParseFlow("priority=10,in_port=1,actions=output:2")
	if err != nil {
		panic(err) // the spec is a constant
	}
	return openflow.AddFlow(rule)
}

// demoEnv is newEnv holding the canonical demo topology, created through
// OVSDB: bridge br-int with an AF_XDP uplink (port 1) and a tap (port 2),
// and the port 1 -> port 2 rule.
func demoEnv(dpType string, cfg cliConfig) (*env, error) {
	e, err := newEnv(dpType, cfg)
	if err != nil {
		return nil, err
	}
	e.db.Transact([]ovsdb.Op{
		{Op: "insert", Table: ovsdb.TableBridge, Row: ovsdb.Row{"name": "br-int"}},
		{Op: "insert", Table: ovsdb.TableInterface,
			Row: ovsdb.Row{"name": "p0", "type": "afxdp", "bridge": "br-int"}},
		{Op: "insert", Table: ovsdb.TableInterface,
			Row: ovsdb.Row{"name": "p1", "type": "tap", "bridge": "br-int"}},
	})
	if n := e.dp.Stats().Ports; n != 2 {
		return nil, fmt.Errorf("expected 2 datapath ports, have %d", n)
	}
	e.daemon.ApplyFlowMod(demoFlow())
	return e, nil
}

// inject pushes n copies of one UDP flow into port 1 through the dpif
// Execute path (the dpctl-style packet injection) and runs the engine.
func (e *env) inject(n int) {
	frame := hdr.NewBuilder().
		Eth(hdr.MAC{0x02, 0xaa, 0, 0, 0, 1}, hdr.MAC{0x02, 0xbb, 0, 0, 0, 1}).
		IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
		UDPH(1000, 2000).PadTo(64).Build()
	for i := 0; i < n; i++ {
		p := packet.New(frame)
		p.InPort = 1
		e.dp.Execute(p)
	}
	e.eng.RunUntil(e.eng.Now() + sim.Millisecond)
}

// show prints the ovs-vsctl show analog: bridges, their ports, and the
// datapath type behind them.
func show(dpType string, cfg cliConfig) error {
	e, err := demoEnv(dpType, cfg)
	if err != nil {
		return err
	}
	for _, name := range e.daemon.Bridges() {
		b, _ := e.daemon.Bridge(name)
		fmt.Printf("bridge %s\n", name)
		fmt.Printf("    datapath type: %s\n", e.dp.Type())
		ports := make([]string, 0, len(b.Ports))
		for p := range b.Ports {
			ports = append(ports, p)
		}
		sort.Strings(ports)
		for _, p := range ports {
			fmt.Printf("    port %s: id %d\n", p, b.Ports[p].ID())
		}
	}
	return nil
}

// dumpFlows prints the installed megaflows after injecting traffic — the
// ovs-appctl dpctl/dump-flows analog.
func dumpFlows(dpType string, cfg cliConfig) error {
	e, err := demoEnv(dpType, cfg)
	if err != nil {
		return err
	}
	e.inject(8)
	views := api.NewFlowViews(e.dp.FlowDump())
	fmt.Printf("%d flow(s) in datapath %s:\n", len(views), e.dp.Type())
	for _, v := range views {
		fmt.Println("  " + v.Text)
	}
	return nil
}

// dpctlStats prints the unified datapath counters — the ovs-dpctl show
// analog (lookups hit/missed/lost plus the megaflow count).
func dpctlStats(dpType string, cfg cliConfig) error {
	e, err := demoEnv(dpType, cfg)
	if err != nil {
		return err
	}
	e.inject(8)
	v := api.NewStatsView(e.dp)
	fmt.Print(v.FormatDpctl(fmt.Sprintf("%s@br-int", v.Type)))
	return nil
}

// faultDemo bounds the upcall queue, injects a transient slow-path fault
// window, and drives traffic through it: the first misses park in the
// bounded queue, the overflow is dropped and counted (ENOBUFS analog), the
// handler's failed translations retry with exponential backoff, and once
// the fault window closes the flow installs and traffic cuts through.
func faultDemo(dpType string, cfg cliConfig) error {
	if _, bounded := cfg["upcall-queue-cap"]; !bounded {
		cfg["upcall-queue-cap"] = "4"
		cfg["upcall-service-us"] = "20"
		cfg["upcall-retry-base-us"] = "25"
	}
	e, err := demoEnv(dpType, cfg)
	if err != nil {
		return err
	}

	inj := faultinject.New(e.eng)
	gate := inj.Gate(faultinject.KindUpcallFailure, "upcall")
	translate := e.daemon.Pipeline.Translate
	e.dp.SetUpcall(func(key flow.Key) (ofproto.Megaflow, error) {
		if gate() {
			return ofproto.Megaflow{}, inj.Err(faultinject.KindUpcallFailure, "upcall")
		}
		return translate(key)
	})
	// The slow path is down for the first 200us of virtual time.
	inj.Window(faultinject.KindUpcallFailure, "upcall", 0, 200*sim.Microsecond, nil)

	e.inject(16)

	st := e.dp.Stats()
	fmt.Printf("%s@br-int after 16 packets through a 200us slow-path outage:\n", e.dp.Type())
	fmt.Printf("  lookups: hit:%d missed:%d lost:%d\n", st.Hits, st.Missed, st.Lost)
	fmt.Printf("  slow path: processed:%d queue-drops:%d malformed:%d\n",
		st.Processed, st.UpcallQueueDrops, st.MalformedDrops)
	var retries uint64
	switch v := e.dp.(type) {
	case *dpif.Netdev:
		retries = v.Datapath().UpcallRetries
	case *dpif.Netlink:
		retries = v.Kernel().UpcallRetries
	}
	fmt.Printf("  upcall retries (exponential backoff): %d\n", retries)
	fmt.Printf("  flows: %d\n", st.Flows)
	fmt.Print(inj.Report())
	return nil
}

// pmdPerfShow prints the per-thread performance counters after injecting
// traffic — the ovs-appctl dpif-netdev/pmd-perf-show analog: cycles per
// stage, packets-per-batch mean, upcall latency percentiles.
func pmdPerfShow(dpType string, cfg cliConfig) error {
	e, err := demoEnv(dpType, cfg)
	if err != nil {
		return err
	}
	e.inject(64)
	fmt.Print(api.NewPerfView(e.dp.PerfStats()).FormatTable())
	return nil
}

// pmdRxqShow prints the rxq-to-thread placement after injecting traffic —
// the ovs-appctl dpif-netdev/pmd-rxq-show analog. Kernel-side datapaths
// report their softirq rx contexts instead of PMD threads.
func pmdRxqShow(dpType string, cfg cliConfig) error {
	e, err := demoEnv(dpType, cfg)
	if err != nil {
		return err
	}
	e.inject(64)
	fmt.Print(e.dp.PmdRxqShow())
	return nil
}

// setConfig applies other_config key=value pairs to the datapath — the
// ovs-vsctl set Open_vSwitch . other_config:key=value analog — then echoes
// the effective values back. Validation is all-or-nothing.
func setConfig(dpType string, cfg cliConfig, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("set: need at least one key=value argument")
	}
	kv, err := api.ParseConfigArgs(args)
	if err != nil {
		return err
	}
	e, err := newEnv(dpType, cfg)
	if err != nil {
		return err
	}
	if err := e.dp.SetConfig(kv); err != nil {
		return err
	}
	eff := e.dp.GetConfig()
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s=%s\n", k, eff[k])
	}
	return nil
}

// getConfig reads the effective other_config back: every key (sorted) with
// no argument, or just the named keys.
func getConfig(dpType string, cfg cliConfig, args []string) error {
	e, err := newEnv(dpType, cfg)
	if err != nil {
		return err
	}
	eff := e.dp.GetConfig()
	if len(args) == 0 {
		fmt.Print(api.NewConfigView(eff).Format())
		return nil
	}
	for _, k := range args {
		v, ok := eff[k]
		if !ok {
			return fmt.Errorf("get: unknown other_config key %q", k)
		}
		fmt.Printf("%s=%s\n", k, v)
	}
	return nil
}

// pmdPerfTrace arms lifecycle tracing, injects traffic, and prints the
// retained packet lifecycles (portin -> cache level -> portout, virtual time).
func pmdPerfTrace(dpType string, cfg cliConfig) error {
	e, err := demoEnv(dpType, cfg)
	if err != nil {
		return err
	}
	e.dp.EnableTrace(16)
	e.inject(8)
	fmt.Print(perf.FormatTrace(e.dp.PerfStats()))
	return nil
}

func demo(dpType string, cfg cliConfig) error {
	// --- the switch side ---------------------------------------------------
	e, err := newEnv(dpType, cfg)
	if err != nil {
		return err
	}
	dbAddr, err := e.db.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer e.db.Close()
	ofAddr, err := e.daemon.ServeOpenFlow("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer e.daemon.Close()
	fmt.Printf("vswitchd up (datapath %s): ovsdb %s, openflow %s\n\n",
		e.dp.Type(), dbAddr, ofAddr)

	// --- the management client over OVSDB ----------------------------------
	client, err := ovsdb.Dial(dbAddr)
	if err != nil {
		return err
	}
	defer client.Close()
	if err := client.Echo(); err != nil {
		return err
	}
	fmt.Println("$ ovs-vsctl add-br br-int")
	if _, err := client.Transact([]ovsdb.Op{
		{Op: "insert", Table: ovsdb.TableBridge, Row: ovsdb.Row{"name": "br-int"}},
	}); err != nil {
		return err
	}
	fmt.Println("$ ovs-vsctl add-port br-int eth0 -- set interface eth0 type=afxdp")
	fmt.Println("$ ovs-vsctl add-port br-int tap0 -- set interface tap0 type=tap")
	if _, err := client.Transact([]ovsdb.Op{
		{Op: "insert", Table: ovsdb.TableInterface,
			Row: ovsdb.Row{"name": "eth0", "type": "afxdp", "bridge": "br-int"}},
		{Op: "insert", Table: ovsdb.TableInterface,
			Row: ovsdb.Row{"name": "tap0", "type": "tap", "bridge": "br-int"}},
	}); err != nil {
		return err
	}
	sel, err := client.Transact([]ovsdb.Op{{Op: "select", Table: ovsdb.TableInterface}})
	if err != nil {
		return err
	}
	fmt.Printf("interfaces in the database: %d\n\n", sel[0].Count)

	// --- the controller side over OpenFlow ----------------------------------
	conn, err := net.Dial("tcp", ofAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := openflow.WriteMessage(conn, openflow.Hello(1)); err != nil {
		return err
	}
	if _, err := openflow.ReadMessage(conn); err != nil { // server hello
		return err
	}
	openflow.WriteMessage(conn, openflow.Message{Type: openflow.TypeFeaturesReq, Xid: 2})
	reply, err := openflow.ReadMessage(conn)
	if err != nil {
		return err
	}
	dpid, _ := openflow.ParseFeaturesReply(reply)
	fmt.Printf("$ ovs-ofctl show br-int\n  datapath id %#x\n", dpid)

	fmt.Println("$ ovs-ofctl add-flow br-int in_port=1,actions=output:2")
	fm := openflow.EncodeFlowMod(demoFlow())
	fm.Xid = 3
	if err := openflow.WriteMessage(conn, fm); err != nil {
		return err
	}
	// Barrier-by-echo: once echoed, the flow mod was applied.
	openflow.WriteMessage(conn, openflow.EchoRequest(4, nil))
	if _, err := openflow.ReadMessage(conn); err != nil {
		return err
	}

	fmt.Printf("\npipeline now holds %d rule(s); bridge %v has %d port(s)\n",
		e.daemon.Pipeline.RuleCount(), e.daemon.Bridges(), e.dp.Stats().Ports)
	return nil
}
