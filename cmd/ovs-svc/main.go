// Command ovs-svc is the live management and observability daemon: it runs
// a simulation bed on the virtual-time engine while serving a REST +
// Prometheus control plane over real HTTP. Where ovsctl and ovsbench are
// batch tools — open a datapath, print, exit — ovs-svc keeps the datapath
// alive so it can be inspected and reconfigured *while it runs*: flip the
// SMC, enable hw-offload, schedule a fault window, or watch the conntrack
// ledger move, all mid-run.
//
// The wall-clock HTTP world and the virtual-time simulation meet at the
// core.Controller seam: handlers submit operations that execute on the
// simulation goroutine between events, so API access never tears counters
// and — with the API idle — never perturbs determinism.
//
// Usage:
//
//	ovs-svc [-addr 127.0.0.1:8866] [-bed afxdp|kernel|ebpf] [-flows N]
//	        [-queues N] [-pmds N] [-rate PPS] [-duration-ms N] [-pace X]
//	        [-o key=value]...
//
// Endpoints (see svc.RouteTable):
//
//	GET  /v1/datapaths                  list datapaths
//	GET  /v1/datapaths/{name}/stats     unified stats (conntrack, offload)
//	GET  /v1/pmd/perf                   pmd-perf-show as JSON
//	GET  /v1/flows                      paged megaflow dump
//	GET  /v1/config                     effective other_config
//	PUT  /v1/config                     typed other_config mutation
//	POST /v1/faults                     schedule a fault window
//	GET  /metrics                       Prometheus text format
//
// -duration-ms bounds the traffic window in virtual time; after it the
// daemon idles with the bed intact, still serving the API, until SIGINT or
// SIGTERM. -pace slows the run to X wall seconds per virtual second
// (0 = free-running).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"ovsxdp/internal/api"
	"ovsxdp/internal/core"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/experiments"
	"ovsxdp/internal/faultinject"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/kit"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/svc"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8866", "HTTP listen address (use :0 for an ephemeral port)")
	bedKind := flag.String("bed", "afxdp", "bed datapath kind: afxdp, kernel, or ebpf")
	name := flag.String("name", "bed0", "datapath name in the API")
	flows := flag.Int("flows", 256, "distinct flows offered by the generator")
	queues := flag.Int("queues", 2, "NIC receive queues")
	pmds := flag.Int("pmds", 0, "PMD threads (0 = one per queue)")
	rate := flag.Float64("rate", 1e6, "offered load in packets per second")
	durationMs := flag.Int64("duration-ms", 100, "traffic window in virtual milliseconds")
	pace := flag.Float64("pace", 0, "wall seconds per virtual second (0 = free-running)")
	stepUs := flag.Int64("step-us", 100, "virtual-time slice between API drains, in microseconds")
	other := map[string]string{}
	flag.Func("o", "other_config key=value applied at open (repeatable)", func(s string) error {
		k, v, err := api.ParseConfigArg(s)
		if err != nil {
			return err
		}
		other[k] = v
		return nil
	})
	flag.Parse()

	if err := run(*addr, *bedKind, *name, *flows, *queues, *pmds, *rate,
		*durationMs, *pace, *stepUs, other); err != nil {
		fmt.Fprintln(os.Stderr, "ovs-svc:", err)
		os.Exit(1)
	}
}

func run(addr, bedKind, name string, flows, queues, pmds int, rate float64,
	durationMs int64, pace float64, stepUs int64, other map[string]string) error {
	var kind experiments.DPKind
	switch bedKind {
	case "afxdp":
		kind = experiments.KindAFXDP
	case "kernel":
		kind = experiments.KindKernel
	case "ebpf":
		kind = experiments.KindEBPF
	default:
		return fmt.Errorf("unknown bed kind %q (want afxdp, kernel, or ebpf)", bedKind)
	}
	if err := dpif.CheckConfig(other); err != nil {
		return err
	}

	cfg := experiments.DefaultBed(kind, flows)
	cfg.Queues = queues
	cfg.PMDs = pmds
	if len(other) > 0 {
		merged := map[string]string{}
		for k, v := range cfg.Other {
			merged[k] = v
		}
		for k, v := range other {
			merged[k] = v
		}
		cfg.Other = merged
	}
	pl := kit.LoopbackPipeline(kit.Hop{1, 2}, kit.Hop{2, 1})
	cfg.Pipeline = pl
	bed := experiments.NewP2PBed(cfg)

	ctl := core.NewController(bed.Eng)
	ctl.Step = sim.Time(stepUs) * sim.Microsecond
	ctl.Pace = pace

	// Fault injection: the upcall gate wraps the slow path; the offload
	// clamp actuator reaches the NIC table through the netdev datapath.
	inj := faultinject.New(bed.Eng)
	gate := inj.Gate(faultinject.KindUpcallFailure, "upcall")
	bed.DP.SetUpcall(func(key flow.Key) (ofproto.Megaflow, error) {
		if gate() {
			return ofproto.Megaflow{}, inj.Err(faultinject.KindUpcallFailure, "upcall")
		}
		return pl.Translate(key)
	})

	server := svc.NewServer(ctl, svc.Target{Name: name, DP: bed.DP})
	server.SetInjector(inj)
	if nd, ok := bed.DP.(*dpif.Netdev); ok {
		server.RegisterActuator(faultinject.KindOffloadTablePressure, "nic", func(active bool) {
			if active {
				size, _ := strconv.Atoi(nd.GetConfig()["hw-offload-table-size"])
				nd.Datapath().OffloadClamp(size/4 + 1)
			} else {
				nd.Datapath().OffloadClamp(0)
			}
		})
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: server.Handler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(ln) }()
	fmt.Printf("ovs-svc: serving %s (datapath %s/%s) on http://%s\n",
		api.SchemaAPI, name, bed.DP.Type(), ln.Addr())

	// Clean shutdown: stop the run loop (releasing any holds), then drain
	// in-flight handlers — they may be parked in controller ops, so the
	// idle server keeps serving until Shutdown returns.
	stop := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		ctl.Stop()
		httpSrv.Shutdown(context.Background())
		close(stop)
	}()

	if durationMs > 0 {
		until := sim.Time(durationMs) * sim.Millisecond
		bed.Gen.Run(rate, until)
		ctl.Run(until)
		fmt.Printf("ovs-svc: traffic window complete at t=%v (sent %d, delivered %d, drops %d); API stays live\n",
			bed.Eng.Now(), bed.Gen.Sent, bed.Delivered, bed.Drops())
	}
	ctl.ServeIdle(stop)
	fmt.Println("ovs-svc: shut down cleanly")
	return nil
}
