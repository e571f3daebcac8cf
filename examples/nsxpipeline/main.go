// NSX pipeline example: generate the Table 3-scale production rule set
// (103,302 OpenFlow rules, 40 tables, 291 Geneve tunnels), send it to a
// vswitchd as OpenFlow flow mods, and walk a packet through the paper's
// three datapath passes — classification, conntrack recirculation, and L2
// forwarding into a Geneve tunnel.
package main

import (
	"fmt"

	"ovsxdp/internal/flow"
	"ovsxdp/internal/nsx"
	"ovsxdp/internal/ofproto"
	"ovsxdp/internal/packet/hdr"
)

func main() {
	cfg := nsx.DefaultConfig()
	fmt.Println("generating the NSX rule set (Table 3 scale)...")
	rs := nsx.Generate(cfg)
	v := nsx.Hypervisor()
	check(rs.Program(v))
	pl := v.Pipeline
	fmt.Printf("  tunnels=%d vms=%d(x%d) rules=%d tables=%d fields=%d\n\n", len(rs.RemoteVTEPs),
		cfg.NumVMs, cfg.IfacesPerVM, pl.RuleCount(), pl.TableCount(), pl.FieldCount())

	// A TCP SYN from the first VM interface to a workload behind tunnel 7.
	vif := rs.VIFs[0]
	remote := nsx.RemoteMAC(7)
	key := (&flow.Fields{
		InPort: vif.Port, EthSrc: vif.MAC, EthDst: remote,
		EthType: hdr.EtherTypeIPv4, IPProto: hdr.IPProtoTCP, IPTTL: 64,
		IP4Src: vif.IP, IP4Dst: hdr.MakeIP4(10, 99, 0, 7),
		TPSrc: 33000, TPDst: 443,
	}).Pack()

	fmt.Println("pass 1: classification -> distributed firewall -> conntrack")
	mf, err := pl.Translate(key)
	check(err)
	fmt.Printf("  megaflow: %d mask bits, actions %v\n", mf.Mask.Bits(), mf.Actions)

	fmt.Println("pass 2: recirculated as a new connection, walking the DFW tables")
	f := key.Unpack()
	f.RecircID = mf.Actions[0].RecircID
	f.CtState = 0x03 // trk|new
	mf2, err := pl.Translate(f.Pack())
	check(err)
	fmt.Printf("  megaflow: %d mask bits, actions %v\n", mf2.Mask.Bits(), mf2.Actions)

	fmt.Println("pass 2': the same flow once established skips the firewall walk")
	f.CtState = 0x05 // trk|est
	mf3, err := pl.Translate(f.Pack())
	check(err)
	fmt.Printf("  megaflow: %d mask bits, actions %v\n", mf3.Mask.Bits(), mf3.Actions)

	if mf3.Actions[0].Type == ofproto.DPTunnelPush {
		t := mf3.Actions[0].Tunnel
		fmt.Printf("\nresult: Geneve encap to VTEP %s (VNI %d), then output uplink port %d\n",
			t.RemoteIP, t.VNI, mf3.Actions[1].Port)
	}
	fmt.Printf("pipeline translations performed: %d\n", pl.Translations)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
