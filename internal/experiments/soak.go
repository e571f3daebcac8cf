package experiments

// The soak scenario is the ovs-svc control plane's proving ground: a
// long-lived, multi-PMD AF_XDP bed with skewed RSS and two traffic classes
// (offloadable UDP elephants + conntracked TCP), reconfigured mid-run
// entirely over real HTTP. A wall-clock driver goroutine parks the engine
// at exact virtual instants (core.Controller holds) and issues the same
// requests an operator would:
//
//	t1  PUT  /v1/config   {"smc-enable":"true","emc-enable":"false"}
//	t2  POST /v1/faults   offload-table-pressure window (NIC rule memory
//	                      clamped to a quarter for a quarter window)
//	t3  PUT  /v1/config   {"pmd-auto-lb":"true", ...}  (cycles policy,
//	                      fast rebalance interval)
//	t4  GET  /v1/datapaths/{name}/stats  (mid-run eviction check)
//
// after which traffic drains and the final stats are read back over HTTP
// too. The scenario passes only if all three conservation ledgers are
// exact at shutdown — rx = delivered + drops, ct created = live + expired
// + early-drops + evicted, offload installs = evictions + uninstalls +
// live — and each mutation demonstrably acted: SMC hits appeared after the
// flip, the balancer rebalanced after the enable, the clamp evicted
// hardware rules.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"

	"ovsxdp/internal/api"
	"ovsxdp/internal/conntrack"
	"ovsxdp/internal/core"
	"ovsxdp/internal/dpif"
	"ovsxdp/internal/faultinject"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/svc"
	"ovsxdp/internal/trafficgen"
)

const (
	// The UDP class: per-megaflow elephants (each well above the offload
	// threshold) that the offload engine pushes into the NIC table.
	soakUDPFlows = 512
	soakUDPRate  = 4e6
	// The TCP class: round-robin connections committed into conntrack and
	// recirculated on every packet. Conntracked megaflows carry a ct()
	// action, so they are never offload candidates — the two classes
	// exercise the two ledgers independently.
	soakConns   = 256
	soakTCPRate = 2e5
	soakZone    = 9
	// soakCtTimeout is every conntrack timeout: comfortably above the
	// ~1.3 ms round-robin revisit gap, small enough that the post-traffic
	// drain completes in a few wheel periods.
	soakCtTimeout = 6 * sim.Millisecond
	// The NIC rule table fits every elephant until the fault window clamps
	// it to a quarter.
	soakHWTable = 1024
)

// SoakSummary is everything the soak run observed, for the report and the
// acceptance test.
type SoakSummary struct {
	UDPSent, TCPSent   uint64
	Delivered, Drops   uint64
	Lost, QueueDrops   uint64
	MalformedDrops     uint64
	RxLedgerOK         bool
	CtCreated          uint64
	CtExpired          uint64
	CtEarlyDrops       uint64
	CtEvictions        uint64
	CtLive             int
	CtLedgerOK         bool
	OffInstalls        uint64
	OffEvictions       uint64
	OffUninstalls      uint64
	OffLive            int
	OffLedgerOK        bool
	SMCHits            uint64 // final; the SMC only exists after the flip
	Rebalances         uint64 // after the auto-LB enable
	MidEvictions       uint64 // evictions seen by the mid-run HTTP check
	HTTPCalls          []string
	HTTPErrors         []string
	FinalStatsOverHTTP api.StatsView
}

// OK reports whether the run met every acceptance condition.
func (s *SoakSummary) OK() bool {
	return s.RxLedgerOK && s.CtLedgerOK && s.OffLedgerOK &&
		s.SMCHits > 0 && s.Rebalances > 0 && s.OffEvictions > 0 &&
		len(s.HTTPErrors) == 0
}

// soakClient issues real HTTP requests against the httptest server and
// records every call and failure for the report.
type soakClient struct {
	base   string
	client *http.Client
	calls  []string
	errs   []string
}

func (c *soakClient) do(method, path string, body any) []byte {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			c.errs = append(c.errs, fmt.Sprintf("%s %s: marshal: %v", method, path, err))
			return nil
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.errs = append(c.errs, fmt.Sprintf("%s %s: %v", method, path, err))
		return nil
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.errs = append(c.errs, fmt.Sprintf("%s %s: %v", method, path, err))
		return nil
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	c.calls = append(c.calls, fmt.Sprintf("%s %s -> %d", method, path, resp.StatusCode))
	if resp.StatusCode >= 300 {
		c.errs = append(c.errs, fmt.Sprintf("%s %s -> %d: %s", method, path, resp.StatusCode, data))
		return nil
	}
	return data
}

// RunSoak executes the soak: build the bed, attach the control plane, run
// the HTTP-driven timeline, drain, and read the final ledgers back over
// the API.
func RunSoak(p Profile) *SoakSummary {
	warmup, window := p.Warmup, p.Window
	total := warmup + window

	// The bed: 4 skewed receive queues over 2 PMDs under the cycles
	// policy, so enabling the auto-load-balancer mid-run has an imbalance
	// to fix. SMC and auto-LB start OFF — flipping them is the API's job.
	cfg := DefaultBed(KindAFXDP, soakUDPFlows)
	cfg.Queues = 4
	cfg.PMDs = 2
	cfg.RSSWeights = []int{8, 2, 1, 1}
	cfg.Other = map[string]string{
		"pmd-rxq-assign":          "cycles",
		"hw-offload":              "true",
		"hw-offload-table-size":   fmt.Sprintf("%d", soakHWTable),
		"hw-offload-elephant-pps": "1000",
		"hw-offload-readback-us":  "250",
	}
	bed := NewP2PBed(cfg)
	nd := bed.DP.(*dpif.Netdev)

	// Dual-class slow path: TCP recirculates through ct(commit) in
	// soakZone and comes back out port 2; UDP flows straight to port 2.
	// Both classes share one narrow proto-wide mask — two megaflows total
	// (IPProto 6 vs 17) — so the table warms after two upcalls and the PMDs
	// never drown in slow-path work at 4e6 pps. The offload engine tracks
	// and installs *exact* flows regardless of megaflow width, so the UDP
	// elephants still become 512 individual NIC rules for the clamp to
	// evict.
	maskProto := flow.NewMaskBuilder().InPort().RecircID().IPProto().Build()
	maskCt1 := flow.NewMaskBuilder().RecircID().Build()
	bed.DP.SetUpcall(func(key flow.Key) (ofproto.Megaflow, error) {
		f := key.Unpack()
		switch {
		case f.RecircID == 1:
			return ofproto.Megaflow{Mask: maskCt1,
				Actions: []ofproto.DPAction{{Type: ofproto.DPOutput, Port: 2}}}, nil
		case f.IPProto == 6: // TCP
			return ofproto.Megaflow{Mask: maskProto, Actions: []ofproto.DPAction{
				{Type: ofproto.DPCT, Zone: soakZone, Commit: true, RecircID: 1}}}, nil
		default:
			return ofproto.Megaflow{Mask: maskProto,
				Actions: []ofproto.DPAction{{Type: ofproto.DPOutput, Port: 2}}}, nil
		}
	})
	ct := nd.Datapath().Ct
	ct.EnableWheelExpiry(true)
	ct.Timeouts = conntrack.Timeouts{SynSent: soakCtTimeout, Established: soakCtTimeout,
		UDP: soakCtTimeout, Fin: soakCtTimeout}

	// The control plane, exactly as cmd/ovs-svc wires it.
	ctl := core.NewController(bed.Eng)
	inj := faultinject.New(bed.Eng)
	server := svc.NewServer(ctl, svc.Target{Name: "soak0", DP: bed.DP})
	server.SetInjector(inj)
	server.RegisterActuator(faultinject.KindOffloadTablePressure, "nic0", func(active bool) {
		if active {
			nd.Datapath().OffloadClamp(soakHWTable / 4)
		} else {
			nd.Datapath().OffloadClamp(0)
		}
	})
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	// The timeline. Holds park the engine at exact virtual instants; the
	// driver goroutine fires its wall-clock HTTP request into the parked
	// engine, then releases.
	smcAt := warmup + window/8
	faultAt := warmup + window/4
	faultDur := window / 4
	albAt := warmup + window/2
	checkAt := warmup + 3*window/4
	hSMC := ctl.HoldAt(smcAt)
	hFault := ctl.HoldAt(faultAt)
	hALB := ctl.HoldAt(albAt)
	hCheck := ctl.HoldAt(checkAt)

	sc := &soakClient{base: ts.URL, client: ts.Client()}
	var midEvictions uint64
	go func() {
		<-hSMC.Reached
		sc.do("PUT", "/v1/config", svc.ConfigRequest{Values: map[string]string{
			"smc-enable": "true", "emc-enable": "false"}})
		hSMC.Release()

		<-hFault.Reached
		sc.do("POST", "/v1/faults", svc.FaultRequest{
			Kind: "offload-table-pressure", Target: "nic0",
			AtUs:       int64(faultAt / sim.Microsecond),
			DurationUs: int64(faultDur / sim.Microsecond)})
		hFault.Release()

		<-hALB.Reached
		sc.do("PUT", "/v1/config", svc.ConfigRequest{Values: map[string]string{
			"pmd-auto-lb":                       "true",
			"pmd-auto-lb-rebal-interval-us":     "500",
			"pmd-auto-lb-improvement-threshold": "5"}})
		hALB.Release()

		<-hCheck.Reached
		if data := sc.do("GET", "/v1/datapaths/soak0/stats", nil); data != nil {
			var body struct {
				Stats api.StatsView `json:"stats"`
			}
			if err := json.Unmarshal(data, &body); err == nil && body.Stats.Offload != nil {
				midEvictions = body.Stats.Offload.Evictions
			}
		}
		hCheck.Release()
	}()

	// The TCP class: round-robin connections from 192.x, fed to the NIC's
	// receive path like the UDP class.
	tcp := &trafficgen.SrcIPGen{Eng: bed.Eng,
		Template: hdr.NewBuilder().
			Eth(hdr.MAC{0x02, 0xaa, 0, 0, 0, 3}, hdr.MAC{0x02, 0xbb, 0, 0, 0, 3}).
			IPv4H(hdr.MakeIP4(192, 0, 0, 0), hdr.MakeIP4(10, 255, 0, 2), 64).
			TCPH(1000, 80, 1, 0, hdr.TCPAck).PadTo(64).Build(),
		Sink:  func(p *packet.Packet) { bed.NICA.Receive(p) },
		Class: 192, Window: soakConns, Until: total}
	bed.Gen.Run(soakUDPRate, total)
	tcp.Run(soakTCPRate)
	ctl.Run(total)

	// Drain: in-flight packets first, then the conntrack wheel.
	deadline := total + 2*sim.Millisecond
	ctl.Run(deadline)
	for i := 0; i < 10 && ct.Len() > 0; i++ {
		deadline += soakCtTimeout
		ctl.Run(deadline)
	}

	// Final ledger read — over HTTP like everything else, with the engine
	// idle-serving.
	var final api.StatsView
	idle := make(chan struct{})
	go func() {
		defer close(idle)
		if data := sc.do("GET", "/v1/datapaths/soak0/stats", nil); data != nil {
			var body struct {
				Stats api.StatsView `json:"stats"`
			}
			if err := json.Unmarshal(data, &body); err != nil {
				sc.errs = append(sc.errs, fmt.Sprintf("decode final stats: %v", err))
			} else {
				final = body.Stats
			}
		}
	}()
	ctl.ServeIdle(idle)

	rebalances, _, _ := nd.Datapath().RebalanceStats()
	s := &SoakSummary{
		UDPSent:            bed.Gen.Sent,
		TCPSent:            tcp.Sent,
		Delivered:          bed.Delivered,
		Drops:              bed.Drops(),
		Lost:               final.Lost,
		QueueDrops:         final.UpcallQueueDrops,
		MalformedDrops:     final.MalformedDrops,
		SMCHits:            final.SMCHits,
		Rebalances:         rebalances,
		MidEvictions:       midEvictions,
		HTTPCalls:          sc.calls,
		HTTPErrors:         sc.errs,
		FinalStatsOverHTTP: final,
	}
	s.RxLedgerOK = s.UDPSent+s.TCPSent ==
		s.Delivered+s.Drops+s.Lost+s.QueueDrops+s.MalformedDrops
	if c := final.Conntrack; c != nil {
		s.CtCreated, s.CtExpired = c.Created, c.Expired
		s.CtEarlyDrops, s.CtEvictions = c.EarlyDrops, c.Evictions
		s.CtLive = c.Conns
		s.CtLedgerOK = c.Created ==
			c.Expired+c.EarlyDrops+c.Evictions+uint64(c.Conns)
	}
	if o := final.Offload; o != nil {
		s.OffInstalls, s.OffEvictions, s.OffUninstalls = o.Installs, o.Evictions, o.Uninstalls
		s.OffLive = o.Live
		s.OffLedgerOK = o.Installs == o.Evictions+o.Uninstalls+uint64(o.Live)
	}
	return s
}

func init() {
	registerScenario(Scenario{
		ID:    "soak",
		Title: "HTTP-driven soak: SMC flip + fault window + auto-LB rebalance over the live API",
		Run: reportOnly(func(p Profile) *Report {
			s := RunSoak(p)
			rep := &Report{ID: "soak",
				Title: "live-reconfiguration soak over the ovs-svc control plane"}
			rep.Add("packets offered (udp+tcp)", float64(s.UDPSent+s.TCPSent), 0, "pkts")
			rep.Add("delivered", float64(s.Delivered), 0, "pkts")
			rep.Add("smc hits after flip", float64(s.SMCHits), 0, "hits")
			rep.Add("auto-lb rebalances after enable", float64(s.Rebalances), 0, "")
			rep.Add("hw evictions under fault clamp", float64(s.OffEvictions), 0, "")
			ledger := func(ok bool) string {
				if ok {
					return "exact"
				}
				return "BROKEN"
			}
			rep.AddNote("rx ledger %s: sent %d = delivered %d + drops %d + lost %d + queue-drops %d + malformed %d",
				ledger(s.RxLedgerOK), s.UDPSent+s.TCPSent,
				s.Delivered, s.Drops, s.Lost, s.QueueDrops, s.MalformedDrops)
			rep.AddNote("ct ledger %s: created %d = expired %d + early-drops %d + evicted %d + live %d",
				ledger(s.CtLedgerOK), s.CtCreated, s.CtExpired, s.CtEarlyDrops, s.CtEvictions, s.CtLive)
			rep.AddNote("offload ledger %s: installs %d = evictions %d + uninstalls %d + live %d (mid-run check saw %d evictions)",
				ledger(s.OffLedgerOK), s.OffInstalls, s.OffEvictions, s.OffUninstalls, s.OffLive, s.MidEvictions)
			for _, call := range s.HTTPCalls {
				rep.AddNote("http: %s", call)
			}
			for _, e := range s.HTTPErrors {
				rep.AddNote("http ERROR: %s", e)
			}
			if s.OK() {
				rep.AddNote("soak PASSED: every mutation acted and every ledger is exact")
			} else {
				rep.AddNote("soak FAILED")
			}
			return rep
		}),
	})
}
