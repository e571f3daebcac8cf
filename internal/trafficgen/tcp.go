package trafficgen

import (
	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
	"ovsxdp/internal/sim"
)

// BulkConfig parameterizes an iperf-style transfer.
type BulkConfig struct {
	Eng *sim.Engine

	// MSS is the TCP maximum segment size (1460 for a 1500 MTU).
	MSS int
	// SendSize is the bytes handed to each send(): 64 kB when TSO lets
	// the stack emit oversized segments, MSS otherwise.
	SendSize int
	// Window is the maximum unacknowledged bytes in flight.
	Window int
	// AckEvery acknowledges every n-th data segment (delayed acks: 2).
	AckEvery int

	// Addressing for the generated segments.
	SrcMAC, DstMAC   hdr.MAC
	SrcIP, DstIP     hdr.IP4
	SrcPort, DstPort uint16

	// MarkTSO marks oversized segments with SegSize so the path's
	// TSO/software-segmentation machinery engages.
	MarkTSO bool
	// MarkCsumPartial marks data segments for checksum offload
	// (negotiated virtio offloads); otherwise they carry CsumVerified.
	MarkCsumPartial bool

	// SenderCharge runs before each send() (stack + syscall costs on the
	// sender's CPU).
	SenderCharge func(bytes int)
	// ReceiverCharge runs for each delivered data packet.
	ReceiverCharge func(bytes int)

	// SendData injects a data segment into the forward path.
	SendData func(*packet.Packet)
	// SendAck injects an ack into the reverse path.
	SendAck func(*packet.Packet)
}

// Bulk is one running transfer. The experiment's receiver endpoint calls
// OnDataArrived for every data packet that reaches it; the sender endpoint
// calls OnAckArrived for every returning ack. The transfer self-clocks:
// acks open the window, the pump refills it.
type Bulk struct {
	cfg BulkConfig

	seq       uint64
	inflight  int
	delivered uint64
	lastAcked uint32
	ackPend   int
	started   sim.Time
	firstByte sim.Time
	pumping   bool
}

// NewBulk builds a transfer.
func NewBulk(cfg BulkConfig) *Bulk {
	if cfg.MSS <= 0 {
		cfg.MSS = 1460
	}
	if cfg.SendSize <= 0 {
		cfg.SendSize = cfg.MSS
	}
	if cfg.Window <= 0 {
		cfg.Window = 256 * 1024
	}
	if cfg.AckEvery <= 0 {
		cfg.AckEvery = 2
	}
	return &Bulk{cfg: cfg}
}

// Start begins pumping data.
func (b *Bulk) Start() {
	b.started = b.cfg.Eng.Now()
	b.pump()
}

// pump sends while the window has room.
func (b *Bulk) pump() {
	if b.pumping {
		return
	}
	b.pumping = true
	defer func() { b.pumping = false }()
	for b.inflight+b.cfg.SendSize <= b.cfg.Window {
		payload := b.cfg.SendSize
		seg := b.buildSegment(payload)
		if b.cfg.SenderCharge != nil {
			b.cfg.SenderCharge(payload)
		}
		b.inflight += payload
		b.seq += uint64(payload)
		b.cfg.SendData(seg)
	}
}

func (b *Bulk) buildSegment(payload int) *packet.Packet {
	p := packet.New(hdr.NewBuilder().
		Eth(b.cfg.SrcMAC, b.cfg.DstMAC).
		IPv4H(b.cfg.SrcIP, b.cfg.DstIP, 64).
		TCPH(b.cfg.SrcPort, b.cfg.DstPort, uint32(b.seq), 0, hdr.TCPAck).
		PayloadLen(payload).Build())
	p.L3Offset = hdr.EthernetSize
	p.L4Offset = hdr.EthernetSize + hdr.IPv4MinSize
	if b.cfg.MarkTSO && payload > b.cfg.MSS {
		p.SegSize = b.cfg.MSS
		p.Offloads |= packet.TSO
	}
	if b.cfg.MarkCsumPartial {
		p.Offloads |= packet.CsumPartial
	} else {
		p.Offloads |= packet.CsumVerified
	}
	return p
}

// OnDataArrived is called by the receiver endpoint per delivered data
// packet; it returns acks through the reverse path per the ack policy.
func (b *Bulk) OnDataArrived(p *packet.Packet) {
	payload := len(p.Data) - 54
	if payload < 0 {
		payload = 0
	}
	if b.delivered == 0 {
		b.firstByte = b.cfg.Eng.Now()
	}
	b.delivered += uint64(payload)
	if b.cfg.ReceiverCharge != nil {
		b.cfg.ReceiverCharge(payload)
	}
	b.ackPend++
	if b.ackPend >= b.cfg.AckEvery {
		b.ackPend = 0
		// The ack number carries the cumulative bytes delivered, as TCP
		// does; the sender derives the newly-opened window from it.
		ack := packet.New(hdr.NewBuilder().
			Eth(b.cfg.DstMAC, b.cfg.SrcMAC).
			IPv4H(b.cfg.DstIP, b.cfg.SrcIP, 64).
			TCPH(b.cfg.DstPort, b.cfg.SrcPort, 0, uint32(b.delivered), hdr.TCPAck).
			PadTo(64).Build())
		ack.Offloads |= packet.CsumVerified
		b.cfg.SendAck(ack)
	}
}

// OnAckArrived is called by the sender endpoint per returning ack. The
// cumulative ack number is read from the TCP header, so intermediate hops
// may freely rewrite packet metadata.
func (b *Bulk) OnAckArrived(p *packet.Packet) {
	ackNo := b.lastAcked
	if eth, err := hdr.ParseEthernet(p.Data); err == nil {
		if ip, err := hdr.ParseIPv4(p.Data[eth.HeaderLen:]); err == nil {
			if tcp, err := hdr.ParseTCP(p.Data[eth.HeaderLen+ip.HeaderLen:]); err == nil {
				ackNo = tcp.Ack
			}
		}
	}
	acked := int(int32(ackNo - b.lastAcked)) // cumulative, handles wrap
	if acked < 0 {
		acked = 0 // stale/duplicate ack
	}
	b.lastAcked = ackNo
	if acked > b.inflight {
		acked = b.inflight
	}
	b.inflight -= acked
	b.pump()
}

// ThroughputGbps computes goodput between the first delivered byte and
// now.
func (b *Bulk) ThroughputGbps() float64 {
	now := b.cfg.Eng.Now()
	if b.delivered == 0 || now <= b.firstByte {
		return 0
	}
	return float64(b.delivered) * 8 / (now - b.firstByte).Seconds() / 1e9
}

// --- netperf TCP_RR ---------------------------------------------------------

// RRConfig parameterizes a request/response latency test.
type RRConfig struct {
	Eng *sim.Engine
	// Transactions to run.
	Transactions int
	// Addressing.
	SrcMAC, DstMAC   hdr.MAC
	SrcIP, DstIP     hdr.IP4
	SrcPort, DstPort uint16

	// SendRequest injects a request into the forward path; SendResponse
	// the response into the reverse path.
	SendRequest  func(*packet.Packet)
	SendResponse func(*packet.Packet)
	// OnDone runs after the last transaction.
	OnDone func()
}

// RR is one running request/response test.
type RR struct {
	cfg RRConfig
	// Latencies holds one round-trip time per completed transaction.
	Latencies sim.Histogram
	t0        sim.Time
}

// NewRR builds the test.
func NewRR(cfg RRConfig) *RR {
	if cfg.Transactions <= 0 {
		cfg.Transactions = 1000
	}
	return &RR{cfg: cfg}
}

// Start issues the first request.
func (r *RR) Start() { r.sendRequest() }

func (r *RR) sendRequest() {
	// An event of its own, after those already due now: Figs 10 and 11
	// count on that order.
	r.cfg.Eng.Schedule(0, func() {
		r.t0 = r.cfg.Eng.Now()
		req := packet.New(hdr.NewBuilder().
			Eth(r.cfg.SrcMAC, r.cfg.DstMAC).
			IPv4H(r.cfg.SrcIP, r.cfg.DstIP, 64).
			TCPH(r.cfg.SrcPort, r.cfg.DstPort, 1, 1, hdr.TCPAck|hdr.TCPPsh).
			PayloadLen(1).PadTo(64).Build())
		req.Offloads |= packet.CsumVerified
		r.cfg.SendRequest(req)
	})
}

// OnRequestArrived is called by the server endpoint; it schedules the
// response. The endpoints' own processing waits are the caller's, on the
// paths it hands in.
func (r *RR) OnRequestArrived(*packet.Packet) {
	r.cfg.Eng.Schedule(0, func() {
		resp := packet.New(hdr.NewBuilder().
			Eth(r.cfg.DstMAC, r.cfg.SrcMAC).
			IPv4H(r.cfg.DstIP, r.cfg.SrcIP, 64).
			TCPH(r.cfg.DstPort, r.cfg.SrcPort, 1, 2, hdr.TCPAck|hdr.TCPPsh).
			PayloadLen(1).PadTo(64).Build())
		resp.Offloads |= packet.CsumVerified
		r.cfg.SendResponse(resp)
	})
}

// OnResponseArrived is called by the client endpoint; it records the RTT
// and starts the next transaction.
func (r *RR) OnResponseArrived(*packet.Packet) {
	r.Latencies.Record(r.cfg.Eng.Now() - r.t0)
	if r.Latencies.Count() < r.cfg.Transactions {
		r.sendRequest()
		return
	}
	if r.cfg.OnDone != nil {
		r.cfg.OnDone()
	}
}

// TransactionsPerSec converts the mean RTT (plus endpoint delays embedded
// in it) into the netperf transaction rate.
func (r *RR) TransactionsPerSec() float64 {
	mean := r.Latencies.Mean()
	if mean <= 0 {
		return 0
	}
	return float64(sim.Second) / mean
}
