// Package containersim models containers (Section 3.4): a network
// namespace reached through a veth pair, whose networking runs entirely in
// the *host* kernel — which is why in-kernel switching is so hard to beat
// for container-to-container TCP, and why the XDP-redirect path (Figure 5
// path C) is the one place OVS AF_XDP wins outright.
//
// A container's packet processing costs land on host CPUs: stack traversal
// in Softirq, application work in User, exactly as Table 4's PCP rows
// account them.
package containersim

import (
	"ovsxdp/internal/costmodel"
	"ovsxdp/internal/kernelsim"
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
	"ovsxdp/internal/vdev"
)

// Container is one namespace endpoint: the peer of a veth link.
type Container struct {
	Name string
	Eng  *sim.Engine
	// StackCPU is the host CPU that runs this namespace's softirq work.
	StackCPU *sim.CPU
	// AppCPU is the host CPU the containerized application runs on.
	AppCPU *sim.CPU
	Veth   *vdev.Link
	// FastPath models a loopback reflector using recvmmsg/sendmmsg with
	// GRO/GSO batching: per-packet stack and syscall costs shrink to
	// their amortized share. The Figure 9(c) forwarding-rate loopback
	// uses this; the latency and TCP tests use the normal path.
	FastPath bool

	// OnPacket handles packets after stack receive costs; the default
	// reflector swaps MACs and sends back.
	OnPacket func(c *Container, p *packet.Packet)

	// Stats.
	RxPackets uint64
	TxPackets uint64
}

// Config parameterizes New.
type Config struct {
	Name     string
	Veth     *vdev.Link
	StackCPU *sim.CPU // created when nil
	AppCPU   *sim.CPU // defaults to StackCPU
	FastPath bool     // batched-syscall loopback reflector
	OnPacket func(c *Container, p *packet.Packet)
}

// New builds and starts a container at the peer end of the veth link.
func New(eng *sim.Engine, cfg Config) *Container {
	stack := cfg.StackCPU
	if stack == nil {
		stack = eng.NewCPU("ct-stack-" + cfg.Name)
	}
	app := cfg.AppCPU
	if app == nil {
		app = stack
	}
	c := &Container{
		Name: cfg.Name, Eng: eng,
		StackCPU: stack, AppCPU: app,
		Veth:     cfg.Veth,
		FastPath: cfg.FastPath,
		OnPacket: cfg.OnPacket,
	}
	if c.OnPacket == nil {
		c.OnPacket = Reflect
	}
	actor := &kernelsim.NAPIActor{
		Eng: eng, CPU: stack,
		Src: cfg.Veth.ToPeer,
		Handler: func(cpu *sim.CPU, pkts []*packet.Packet) {
			for _, p := range pkts {
				// Receive: veth ingress + namespace stack.
				rx := costmodel.SkbAlloc + costmodel.KernelStackRxPerPacket
				if c.FastPath {
					rx = rx / 3 // GRO + batched delivery
				}
				cpu.Consume(sim.Softirq, rx)
				c.RxPackets++
				c.OnPacket(c, p)
			}
		},
	}
	actor.Start()
	return c
}

// Transmit sends one packet out of the namespace: application syscall,
// stack transmit, veth crossing back to the host side. FastPath amortizes
// the syscall across a sendmmsg batch and GSO-batches the stack traversal.
func (c *Container) Transmit(p *packet.Packet) {
	if c.FastPath {
		c.AppCPU.Consume(sim.System, costmodel.SyscallBase/16+costmodel.CopyCost(len(p.Data)))
		c.StackCPU.Consume(sim.Softirq, (costmodel.KernelStackTxPerPacket+costmodel.VethCrossing)/3)
		p.Offloads |= packet.CsumVerified
		c.TxPackets++
		c.Veth.FromPeer.Push(p)
		return
	}
	c.AppCPU.Consume(sim.System, costmodel.SyscallBase+costmodel.CopyCost(len(p.Data)))
	c.StackCPU.Consume(sim.Softirq, costmodel.KernelStackTxPerPacket+costmodel.VethCrossing)
	// Local kernel traffic carries validated checksums (no wire).
	p.Offloads |= packet.CsumVerified
	c.TxPackets++
	c.Veth.FromPeer.Push(p)
}

// Reflect is the default handler: swap MACs and transmit back.
func Reflect(c *Container, p *packet.Packet) {
	hdr.SwapEthAddrs(p.Data)
	p.ResetMetadata()
	c.Transmit(p)
}
