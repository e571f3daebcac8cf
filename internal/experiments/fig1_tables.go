package experiments

import (
	"strconv"

	"ovsxdp/internal/netlinksim"
	"ovsxdp/internal/nsx"
	"ovsxdp/internal/packet/hdr"
)

// Figure 1: lines of code changed per year in the out-of-tree kernel
// module. This is historical repository data, not a runnable system; the
// series below is the dataset the paper plots (new features vs backports,
// 2015-2019), embedded per DESIGN.md's substitution table.
//
// Table 1: the kernel tools work against an AF_XDP-managed NIC but not a
// DPDK-bound one — exercised live against the netlink simulation.
//
// Table 3: the NSX rule-set statistics, computed from the generator.

func init() {
	register(Experiment{ID: "fig1", Title: "Out-of-tree module code churn (Figure 1)", Run: runFig1})
	register(Experiment{ID: "table1", Title: "Kernel tooling compatibility (Table 1)", Run: runTable1})
	register(Experiment{ID: "table3", Title: "NSX rule set statistics (Table 3)", Run: runTable3})
}

// fig1Series is the embedded churn dataset (lines of code changed in the
// OVS repository's kernel datapath, eyeballed from the figure).
var fig1Series = []struct {
	Year                   int
	NewFeatures, Backports int
}{
	{2015, 9000, 4500},
	{2016, 9500, 5500},
	{2017, 6500, 11000},
	{2018, 7000, 22000},
	{2019, 1500, 7500},
}

func runFig1(p Profile) *Report {
	r := &Report{ID: "fig1", Title: "LoC changed per year in the out-of-tree kernel datapath"}
	for _, y := range fig1Series {
		r.Add(strconv.Itoa(y.Year)+" new features", float64(y.NewFeatures), float64(y.NewFeatures), "LoC")
		r.Add(strconv.Itoa(y.Year)+" backports", float64(y.Backports), float64(y.Backports), "LoC")
	}
	r.AddNote("embedded dataset (repository history, not simulation); backports dominate later years —")
	r.AddNote("the 'running faster and faster just to stay in the same place' cost of Takeaway #2")
	return r
}

// runTable1 exercises each Table 1 command analog against a kernel that
// manages the NIC (AF_XDP case) and one where DPDK stole it.
func runTable1(Profile) *Report {
	r := &Report{ID: "table1", Title: "ip/ping/nstat-style operations per datapath (1 = works)"}

	type op struct {
		name string
		run  func(k *netlinksim.Kernel) error
	}
	setup := func() *netlinksim.Kernel {
		k := netlinksim.NewKernel()
		idx, _ := k.AddLink("eth0", "mlx5_core", hdr.MAC{2, 0, 0, 0, 0, 1}, 1500)
		k.AddAddr("eth0", hdr.MakeIP4(10, 0, 0, 1), 24)
		k.AddNeigh(netlinksim.Neigh{IP: hdr.MakeIP4(10, 0, 0, 2),
			MAC: hdr.MAC{2, 0, 0, 0, 0, 2}, LinkIndex: idx})
		return k
	}
	ops := []op{
		{"ip link", func(k *netlinksim.Kernel) error {
			_, err := k.LinkByName("eth0")
			return err
		}},
		{"ip address", func(k *netlinksim.Kernel) error {
			_, err := k.Addrs("eth0")
			return err
		}},
		{"ip route", func(k *netlinksim.Kernel) error {
			if _, ok := k.LookupRoute(hdr.MakeIP4(10, 0, 0, 9)); !ok {
				return netlinksim.ErrNoDevice{Name: "eth0"}
			}
			return nil
		}},
		{"ip neigh", func(k *netlinksim.Kernel) error {
			if _, ok := k.LookupNeigh(hdr.MakeIP4(10, 0, 0, 2)); !ok {
				return netlinksim.ErrNoDevice{Name: "eth0"}
			}
			return nil
		}},
		{"ping (L3 path)", func(k *netlinksim.Kernel) error {
			// Needs a route and a resolvable next hop.
			rt, ok := k.LookupRoute(hdr.MakeIP4(10, 0, 0, 2))
			if !ok {
				return netlinksim.ErrNoDevice{Name: "route"}
			}
			if _, err := k.LinkByIndex(rt.LinkIndex); err != nil {
				return err
			}
			return nil
		}},
		{"arping (L2 path)", func(k *netlinksim.Kernel) error {
			if _, ok := k.LookupNeigh(hdr.MakeIP4(10, 0, 0, 2)); !ok {
				return netlinksim.ErrNoDevice{Name: "neigh"}
			}
			return nil
		}},
		{"nstat (device stats)", func(k *netlinksim.Kernel) error {
			l, err := k.LinkByName("eth0")
			if err != nil {
				return err
			}
			_ = l.RxPackets
			return nil
		}},
		{"tcpdump (attach)", func(k *netlinksim.Kernel) error {
			// Packet capture needs the kernel device to exist.
			_, err := k.LinkByName("eth0")
			return err
		}},
	}

	afxdpOK, dpdkOK := 0, 0
	for _, o := range ops {
		// AF_XDP: the kernel still owns the device.
		k1 := setup()
		okA := o.run(k1) == nil
		if okA {
			afxdpOK++
		}
		// DPDK: the device is unbound from the kernel.
		k2 := setup()
		if _, err := k2.BindDPDK("eth0"); err != nil {
			panic(err)
		}
		okD := o.run(k2) == nil
		if okD {
			dpdkOK++
		}
		r.Add(o.name+" on afxdp", b2f(okA), 1, "works")
		r.Add(o.name+" on dpdk", b2f(okD), 0, "works")
	}
	r.AddNote("AF_XDP: %d/%d commands work; DPDK: %d/%d (Table 1's compatibility claim)",
		afxdpOK, len(ops), dpdkOK, len(ops))
	return r
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// runTable3 sends the generated rule set to a vswitchd as OpenFlow flow
// mods and reports what the daemon holds.
func runTable3(Profile) *Report {
	r := &Report{ID: "table3", Title: "Properties of the generated NSX rule set"}
	rs := nsx.Generate(nsx.DefaultConfig())
	v := nsx.Hypervisor()
	if err := rs.Program(v); err != nil {
		panic(err)
	}
	r.Add("Geneve tunnels", float64(len(rs.RemoteVTEPs)), 291, "")
	r.Add("VMs (two interfaces per VM)", float64(rs.Config.NumVMs), 15, "")
	r.Add("OpenFlow rules", float64(v.Pipeline.RuleCount()), 103302, "")
	r.Add("OpenFlow tables", float64(v.Pipeline.TableCount()), 40, "")
	r.Add("matching fields among all rules", float64(v.Pipeline.FieldCount()), 31, "")
	r.AddNote("fields trail the paper's 31: NSX also matches on registers/metadata our flow key does not model")
	return r
}
