// Package nsx models the NSX agent of Section 4: it generates a
// production-grade OpenFlow rule set with the same shape and statistics as
// the paper's Table 3 (taken "from one of our hypervisors"), and programs a
// vswitchd with it the way the agent does: one OpenFlow flow mod per rule.
//
// The pipeline reproduces the three-pass packet walk Section 5.1 describes:
//
//	pass 1: the outer lookup recognizes tunneled traffic and decapsulates
//	        (or, for local VIF traffic, classifies into the egress
//	        pipeline);
//	pass 2: the inner lookup runs the distributed firewall, handing the
//	        packet and zone to conntrack (which recirculates);
//	pass 3: the conntrack-state lookup picks the forwarding action: a
//	        local VIF, or a Geneve tunnel to a peer hypervisor.
package nsx

import (
	"fmt"

	"ovsxdp/internal/dpif"
	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/openflow"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/tunnel"
	"ovsxdp/internal/vswitchd"
)

// Table layout of the generated pipeline.
const (
	TableClassify  = 0  // in_port classification
	TableTunnelIn  = 5  // per-tunnel-source admission
	TableEgressACL = 10 // VIF egress pipeline entry (ct send)
	TableEgressCT  = 11 // post-conntrack egress decisions
	TableDFWBase   = 20 // distributed firewall rule tables (the bulk)
	numDFWTables   = 35 // tables 20..54 hold firewall rules (40 tables total)
	TableL2        = 60 // L2 forwarding by destination MAC
)

// Config sizes the generated rule set. Defaults reproduce Table 3.
type Config struct {
	NumVMs       int // VMs on this hypervisor (two interfaces each)
	IfacesPerVM  int
	NumTunnels   int // Geneve tunnels to peer hypervisors
	TargetRules  int // total OpenFlow rules
	UplinkPort   uint32
	TunnelVPort  uint32 // virtual port packets appear on after tnl_pop
	FirstVIFPort uint32 // VIF datapath ports are FirstVIFPort..+NumVIFs-1
	LocalVTEP    hdr.IP4
}

// DefaultConfig reproduces the paper's Table 3 statistics.
func DefaultConfig() Config {
	return Config{
		NumVMs:       15,
		IfacesPerVM:  2,
		NumTunnels:   291,
		TargetRules:  103302,
		UplinkPort:   1,
		TunnelVPort:  100,
		FirstVIFPort: 200,
		LocalVTEP:    hdr.MakeIP4(172, 16, 0, 1),
	}
}

// VIF describes one VM interface.
type VIF struct {
	Port uint32
	MAC  hdr.MAC
	IP   hdr.IP4
	Zone uint16 // firewall zone
	VNI  uint32 // logical switch
}

// Ruleset is the generated configuration.
type Ruleset struct {
	Config Config
	Rules  []*ofproto.Rule
	VIFs   []VIF
	// RemoteVTEPs are the tunnel endpoints (one per tunnel).
	RemoteVTEPs []hdr.IP4
	// RemoteMACs maps remote workload MACs to their VTEP index.
	RemoteMACs map[hdr.MAC]int
}

// VIFMAC returns the deterministic MAC of VIF i.
func VIFMAC(i int) hdr.MAC {
	return hdr.MAC{0x02, 0x10, 0x00, 0x00, byte(i >> 8), byte(i)}
}

// RemoteMAC returns the deterministic MAC of remote workload i.
func RemoteMAC(i int) hdr.MAC {
	return hdr.MAC{0x02, 0x20, 0x00, 0x00, byte(i >> 8), byte(i)}
}

// VTEPAddr returns remote VTEP i's IP.
func VTEPAddr(i int) hdr.IP4 {
	return hdr.MakeIP4(172, 16, 1+byte(i/250), byte(i%250)+1)
}

// Generate builds the rule set.
func Generate(cfg Config) *Ruleset {
	rs := &Ruleset{Config: cfg, RemoteMACs: make(map[hdr.MAC]int)}

	numVIFs := cfg.NumVMs * cfg.IfacesPerVM
	for i := 0; i < numVIFs; i++ {
		rs.VIFs = append(rs.VIFs, VIF{
			Port: cfg.FirstVIFPort + uint32(i),
			MAC:  VIFMAC(i),
			IP:   hdr.MakeIP4(10, 10, byte(i/250), byte(i%250)+1),
			Zone: uint16(1 + i/cfg.IfacesPerVM), // one zone per VM
			VNI:  uint32(5000 + i%4),            // a few logical switches
		})
	}
	for i := 0; i < cfg.NumTunnels; i++ {
		rs.RemoteVTEPs = append(rs.RemoteVTEPs, VTEPAddr(i))
		rs.RemoteMACs[RemoteMAC(i)] = i
	}

	add := func(r *ofproto.Rule) { rs.Rules = append(rs.Rules, r) }

	// --- Table 0: classification -------------------------------------------
	mIn := flow.NewMaskBuilder().InPort().Build()
	// Tunneled traffic arriving on the uplink: decapsulate.
	mTun := flow.NewMaskBuilder().InPort().EthType().IPProto().TPDst().Build()
	add(&ofproto.Rule{TableID: TableClassify, Priority: 200,
		Match: ofproto.NewMatch(flow.Fields{InPort: cfg.UplinkPort,
			EthType: hdr.EtherTypeIPv4, IPProto: hdr.IPProtoUDP, TPDst: hdr.GenevePort}, mTun),
		Actions: []ofproto.Action{ofproto.TunnelPop(cfg.TunnelVPort)}})
	// Non-tunnel uplink traffic: drop (underlay management handled by the
	// kernel stack via XDP pass, not the datapath).
	add(&ofproto.Rule{TableID: TableClassify, Priority: 10,
		Match:   ofproto.NewMatch(flow.Fields{InPort: cfg.UplinkPort}, mIn),
		Actions: []ofproto.Action{ofproto.Drop()}})
	// Decapsulated traffic: admit per tunnel source (pass 2 entry).
	add(&ofproto.Rule{TableID: TableClassify, Priority: 100,
		Match:   ofproto.NewMatch(flow.Fields{InPort: cfg.TunnelVPort}, mIn),
		Actions: []ofproto.Action{ofproto.GotoTable(TableTunnelIn)}})
	// Local VIF traffic: egress pipeline.
	for _, vif := range rs.VIFs {
		add(&ofproto.Rule{TableID: TableClassify, Priority: 100,
			Match:   ofproto.NewMatch(flow.Fields{InPort: vif.Port}, mIn),
			Actions: []ofproto.Action{ofproto.GotoTable(TableEgressACL)}})
	}

	// --- Table 5: tunnel admission, one rule per peer VTEP ------------------
	mVtep := flow.NewMaskBuilder().TunSrc().Build()
	for _, vtep := range rs.RemoteVTEPs {
		add(&ofproto.Rule{TableID: TableTunnelIn, Priority: 50,
			Match:   ofproto.NewMatch(flow.Fields{TunSrc: vtep}, mVtep),
			Actions: []ofproto.Action{ofproto.GotoTable(TableEgressACL)}})
	}

	// --- Table 10: send everything to conntrack in the VIF's zone -----------
	// Zone selection matches the destination (inbound) or source
	// (outbound) workload address; a catch-all uses zone 0.
	mDst := flow.NewMaskBuilder().EthType().IP4Dst(32).Build()
	for _, vif := range rs.VIFs {
		add(&ofproto.Rule{TableID: TableEgressACL, Priority: 80,
			Match: ofproto.NewMatch(flow.Fields{EthType: hdr.EtherTypeIPv4,
				IP4Dst: vif.IP}, mDst),
			Actions: []ofproto.Action{ofproto.CT(vif.Zone, true, TableEgressCT)}})
	}
	mEth := flow.NewMaskBuilder().EthType().Build()
	add(&ofproto.Rule{TableID: TableEgressACL, Priority: 5,
		Match:   ofproto.NewMatch(flow.Fields{EthType: hdr.EtherTypeIPv4}, mEth),
		Actions: []ofproto.Action{ofproto.CT(0, true, TableEgressCT)}})
	// ARP within the logical switch floods to the L2 table directly.
	add(&ofproto.Rule{TableID: TableEgressACL, Priority: 90,
		Match:   ofproto.NewMatch(flow.Fields{EthType: hdr.EtherTypeARP}, mEth),
		Actions: []ofproto.Action{ofproto.GotoTable(TableL2)}})

	// --- Table 11: post-conntrack decisions (pass 3 entry) ------------------
	mCt := flow.NewMaskBuilder().CtState(0x07).Build() // trk|new|est bits
	// Established or new (committed) traffic proceeds to the firewall
	// result: established skips the DFW, new traffic walks it.
	add(&ofproto.Rule{TableID: TableEgressCT, Priority: 100,
		Match:   ofproto.NewMatch(flow.Fields{CtState: 0x05}, mCt), // trk|est
		Actions: []ofproto.Action{ofproto.GotoTable(TableL2)}})
	add(&ofproto.Rule{TableID: TableEgressCT, Priority: 90,
		Match:   ofproto.NewMatch(flow.Fields{CtState: 0x03}, mCt), // trk|new
		Actions: []ofproto.Action{ofproto.GotoTable(TableDFWBase)}})
	mInv := flow.NewMaskBuilder().CtState(0x21).Build()
	add(&ofproto.Rule{TableID: TableEgressCT, Priority: 95,
		Match:   ofproto.NewMatch(flow.Fields{CtState: 0x21}, mInv), // trk|inv
		Actions: []ofproto.Action{ofproto.Drop()}})

	// --- DFW tables: the 100k bulk ------------------------------------------
	// Each DFW table ends with a low-priority continue rule; new traffic
	// walks table-to-table (NSX compiles firewall sections similarly).
	for t := 0; t < numDFWTables; t++ {
		tableID := uint8(TableDFWBase + t)
		next := TableDFWBase + t + 1
		var cont ofproto.Action
		if t == numDFWTables-1 {
			cont = ofproto.GotoTable(TableL2)
		} else {
			cont = ofproto.GotoTable(uint8(next))
		}
		add(&ofproto.Rule{TableID: tableID, Priority: 1,
			Match:   ofproto.MatchAny(),
			Actions: []ofproto.Action{cont}})
	}

	// Filler firewall rules: highly specific 5-tuple drops spread across
	// the DFW tables — they do not match the experiment's traffic but
	// populate subtables exactly like NSX's expanded address sets do.
	// Special-case firewall rules exercising the wider field set NSX
	// matches on (Table 3 counts 31 distinct fields across all rules):
	// TCP flags, DSCP, TTL guards, fragments, VLAN, ICMP, ct_mark,
	// tunnel VNI, source ports, source MACs.
	special := []*ofproto.Rule{
		{TableID: TableDFWBase, Priority: 900, // SYN-flood guard
			Match: ofproto.NewMatch(flow.Fields{EthType: hdr.EtherTypeIPv4,
				IPProto: hdr.IPProtoTCP, TCPFlags: hdr.TCPSyn | hdr.TCPFin},
				flow.NewMaskBuilder().EthType().IPProto().TCPFlags(hdr.TCPSyn|hdr.TCPFin).Build()),
			Actions: []ofproto.Action{ofproto.Drop()}},
		{TableID: TableDFWBase, Priority: 890, // DSCP-based policing
			Match: ofproto.NewMatch(flow.Fields{EthType: hdr.EtherTypeIPv4, IPTOS: 0xb8},
				flow.NewMaskBuilder().EthType().IPTOS().Build()),
			Actions: []ofproto.Action{ofproto.GotoTable(TableDFWBase + 1)}},
		{TableID: TableDFWBase, Priority: 880, // TTL-expired drop
			Match: ofproto.NewMatch(flow.Fields{EthType: hdr.EtherTypeIPv4, IPTTL: 0},
				flow.NewMaskBuilder().EthType().IPTTL().Build()),
			Actions: []ofproto.Action{ofproto.Drop()}},
		{TableID: TableDFWBase, Priority: 870, // later fragments
			Match: ofproto.NewMatch(flow.Fields{EthType: hdr.EtherTypeIPv4, IPFrag: 3},
				flow.NewMaskBuilder().EthType().IPFrag().Build()),
			Actions: []ofproto.Action{ofproto.Drop()}},
		{TableID: TableDFWBase + 1, Priority: 860, // tagged management VLAN
			Match: ofproto.NewMatch(flow.Fields{VLANTCI: flow.VLANPresent | 4000},
				flow.NewMaskBuilder().VLAN().Build()),
			Actions: []ofproto.Action{ofproto.Drop()}},
		{TableID: TableDFWBase + 1, Priority: 850, // ICMP echo policing
			Match: ofproto.NewMatch(flow.Fields{EthType: hdr.EtherTypeIPv4,
				IPProto: hdr.IPProtoICMP, ICMPType: hdr.ICMPEchoRequest},
				flow.NewMaskBuilder().EthType().IPProto().ICMP().Build()),
			Actions: []ofproto.Action{ofproto.Meter(1), ofproto.GotoTable(TableDFWBase + 2)}},
		{TableID: TableDFWBase + 2, Priority: 840, // ct_mark'd quarantined conns
			Match: ofproto.NewMatch(flow.Fields{CtMark: 0xdead},
				flow.NewMaskBuilder().CtMark().Build()),
			Actions: []ofproto.Action{ofproto.Drop()}},
		{TableID: TableDFWBase + 2, Priority: 830, // per-logical-switch policy
			Match: ofproto.NewMatch(flow.Fields{TunVNI: 5003},
				flow.NewMaskBuilder().TunVNI().Build()),
			Actions: []ofproto.Action{ofproto.GotoTable(TableDFWBase + 3)}},
		{TableID: TableDFWBase + 3, Priority: 820, // source-port service rule
			Match: ofproto.NewMatch(flow.Fields{EthType: hdr.EtherTypeIPv4,
				IPProto: hdr.IPProtoUDP, TPSrc: 53},
				flow.NewMaskBuilder().EthType().IPProto().TPSrc().Build()),
			Actions: []ofproto.Action{ofproto.GotoTable(TableDFWBase + 4)}},
		{TableID: TableDFWBase + 3, Priority: 810, // MAC-spoof guard
			Match: ofproto.NewMatch(flow.Fields{EthSrc: hdr.MAC{0xff, 0, 0, 0, 0, 1}},
				flow.NewMaskBuilder().EthSrc().Build()),
			Actions: []ofproto.Action{ofproto.Drop()}},
		{TableID: TableDFWBase + 4, Priority: 800, // ct_zone pin
			Match: ofproto.NewMatch(flow.Fields{CtZone: 999},
				flow.NewMaskBuilder().CtZone().Build()),
			Actions: []ofproto.Action{ofproto.Drop()}},
		{TableID: TableDFWBase + 4, Priority: 790, // IPv6 neighbor solicitation policy
			Match: ofproto.NewMatch(flow.Fields{EthType: hdr.EtherTypeIPv6,
				IPProto: hdr.IPProtoICMPv6, ICMPType: 135},
				flow.NewMaskBuilder().EthType().IPProto().ICMP().Build()),
			Actions: []ofproto.Action{ofproto.Drop()}},
		{TableID: TableDFWBase + 5, Priority: 780, // tunnel-destination scoped
			Match: ofproto.NewMatch(flow.Fields{TunDst: cfg.LocalVTEP},
				flow.NewMaskBuilder().TunDst().Build()),
			Actions: []ofproto.Action{ofproto.GotoTable(TableDFWBase + 6)}},
	}
	for _, r := range special {
		add(r)
	}

	structural := len(rs.Rules)
	// Rules still to come after the filler: per-VIF L2, per-remote-MAC
	// L2, and the broadcast flood.
	postFiller := numVIFs + len(rs.RemoteMACs) + 1
	filler := cfg.TargetRules - structural - postFiller
	if filler < 0 {
		filler = 0
	}
	mFW := flow.NewMaskBuilder().EthType().IPProto().IP4Src(32).IP4Dst(32).TPDst().Build()
	for i := 0; i < filler; i++ {
		tableID := uint8(TableDFWBase + i%numDFWTables)
		proto := hdr.IPProtoTCP
		if i%3 == 0 {
			proto = hdr.IPProtoUDP
		}
		f := flow.Fields{
			EthType: hdr.EtherTypeIPv4,
			IPProto: proto,
			IP4Src:  hdr.MakeIP4(192, byte(10+i%40), byte(i/65536), byte(i/256)),
			IP4Dst:  hdr.MakeIP4(10, 10, byte(i%250), byte(1+i%200)),
			TPDst:   uint16(1024 + i%20000),
		}
		add(&ofproto.Rule{TableID: tableID, Priority: 500 + i%100,
			Match:   ofproto.NewMatch(f, mFW),
			Actions: []ofproto.Action{ofproto.Drop()}})
	}

	// --- L2 table: local VIFs and remote workloads ---------------------------
	mMac := flow.NewMaskBuilder().EthDst().Build()
	for i, vif := range rs.VIFs {
		add(&ofproto.Rule{TableID: TableL2, Priority: 50,
			Match:   ofproto.NewMatch(flow.Fields{EthDst: vif.MAC}, mMac),
			Actions: []ofproto.Action{ofproto.Output(vif.Port)}})
		_ = i
	}
	for mac, vtepIdx := range rs.RemoteMACs {
		add(&ofproto.Rule{TableID: TableL2, Priority: 50,
			Match: ofproto.NewMatch(flow.Fields{EthDst: mac}, mMac),
			Actions: []ofproto.Action{
				ofproto.SetTunnel(tunnel.Config{Kind: tunnel.Geneve,
					LocalIP:  cfg.LocalVTEP,
					RemoteIP: rs.RemoteVTEPs[vtepIdx],
					VNI:      5000}),
				ofproto.Output(cfg.UplinkPort),
			}})
	}
	// Broadcast (ARP) floods to all local VIFs.
	bcast := []ofproto.Action{}
	for _, vif := range rs.VIFs {
		bcast = append(bcast, ofproto.Output(vif.Port))
	}
	add(&ofproto.Rule{TableID: TableL2, Priority: 60,
		Match:   ofproto.NewMatch(flow.Fields{EthDst: hdr.Broadcast}, mMac),
		Actions: bcast})

	return rs
}

// Hypervisor opens the switch the agent programs: a vswitchd over a
// portless netdev datapath, whose pipeline holds what the agent sent.
func Hypervisor() *vswitchd.VSwitchd {
	pl := ofproto.NewPipeline()
	d, err := dpif.Open("netdev", dpif.Config{Eng: sim.NewEngine(1), Pipeline: pl})
	if err != nil {
		panic(err) // the netdev provider is always registered
	}
	return vswitchd.New(nil, pl, d)
}

// Program sends every rule to the daemon as an OpenFlow add-flow message,
// in generation order (Section 4: the agent "transforms the NSX network
// policies into flow rules" over OpenFlow).
func (rs *Ruleset) Program(v *vswitchd.VSwitchd) error {
	for _, r := range rs.Rules {
		msg, err := openflow.EncodeFlowMod(openflow.AddFlow(r))
		if err != nil {
			return fmt.Errorf("nsx: rule %v: %w", r, err)
		}
		if reply, refused := v.Handle(msg); refused {
			return fmt.Errorf("nsx: rule %v: the switch answered %v", r, reply.Type)
		}
	}
	return nil
}
