// Container fast path example (paper Figure 5 path C): the XDP program on
// the NIC redirects known container MACs straight to their veth, bypassing
// OVS userspace; unknown traffic falls through to the AF_XDP socket.
// Compare the per-packet CPU cost of the two paths.
package main

import (
	"fmt"

	"ovsxdp/internal/containersim"
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/ebpf"
	"ovsxdp/internal/kernelsim"
	"ovsxdp/internal/nicsim"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/vdev"
	"ovsxdp/internal/xdp"
)

func main() {
	eng := sim.NewEngine(1)
	nic := nicsim.New(eng, nicsim.Config{Name: "eth0", Ifindex: 1, Queues: 1})

	// A container behind a veth pair.
	veth := vdev.NewLink("veth0")
	containersim.New(eng, containersim.Config{Name: "c0", Veth: veth,
		OnPacket: func(c *containersim.Container, p *packet.Packet) { containerRx++ }})
	ctMAC := hdr.MAC{0x02, 0xc0, 0, 0, 0, 1}

	// XDP maps: L2 table routes the container MAC to devmap slot 0.
	l2 := ebpf.NewHashMap(8, 4, 128)
	dev := ebpf.NewDevMap(8)
	xsk := ebpf.NewXskMap(8)
	check(dev.SetTarget(0, 3))
	check(xsk.SetTarget(0, 0))
	check(l2.Update(xdp.MACKey([6]byte(ctMAC)), []byte{0, 0, 0, 0}))

	prog := xdp.NewRedirectToVeth(l2, dev, xsk)
	check(prog.Load())
	check(nic.Hook.Attach(prog))
	fmt.Printf("attached %q (%d insns) to eth0\n\n", prog.Name, len(prog.Insns))

	// Softirq actor: driver receive through the XDP program.
	softirq := eng.NewCPU("softirq")
	redirected, toUserspace := 0, 0
	(&kernelsim.NAPIActor{Eng: eng, CPU: softirq,
		Src: nic.Queue(0),
		Handler: func(cpu *sim.CPU, pkts []*packet.Packet) {
			for _, p := range pkts {
				cpu.Consume(sim.Softirq, costmodel.XDPDriverOverhead)
				res, cost, err := nic.Hook.Run(0, p.Data, 1)
				check(err)
				cpu.Consume(sim.Softirq, cost)
				if res.Action == ebpf.XDPRedirect {
					if res.RedirectMap.Type() == ebpf.MapTypeDevMap {
						cpu.Consume(sim.Softirq, costmodel.XDPRedirectVeth)
						veth.ToPeer.Push(p)
						redirected++
					} else {
						toUserspace++
					}
				}
			}
		}}).Start()

	// Traffic: 1,000 packets to the container, 200 to an unknown MAC,
	// spaced 1 us apart (a burst larger than the RX ring would drop).
	src := hdr.MAC{0x02, 0xaa, 0, 0, 0, 9}
	for i := 0; i < 1200; i++ {
		i := i
		eng.Schedule(sim.Time(i)*sim.Microsecond, func() {
			dst := ctMAC
			if i%6 == 5 {
				dst = hdr.MAC{0x02, 0xdd, 0, 0, 0, 9}
			}
			nic.Receive(packet.New(frameTo(src, dst, uint16(i))))
		})
	}
	eng.Run()

	perPkt := float64(softirq.Busy(sim.Softirq)) / float64(redirected+toUserspace)
	fmt.Printf("redirected to veth (path C): %4d packets\n", redirected)
	fmt.Printf("handed to AF_XDP socket:     %4d packets\n", toUserspace)
	fmt.Printf("softirq cost: %.0f ns/packet — no userspace hop for container traffic\n", perPkt)
	fmt.Printf("container received %d packets through its namespace stack\n", containerRx)
}

var containerRx int

func frameTo(src, dst hdr.MAC, sport uint16) []byte {
	return hdr.NewBuilder().Eth(src, dst).
		IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
		UDPH(sport, 8080).PayloadLen(18).PadTo(64).Build()
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
