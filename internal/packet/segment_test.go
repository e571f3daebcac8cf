package packet_test

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"ovsxdp/internal/packet"
	"ovsxdp/internal/packet/hdr"
)

// tsoFrame is an Ethernet/IPv4/TCP super-frame with payloadLen bytes of
// payload, its TCP data offset overwritten with dataOff (0-15) and its last
// cut bytes dropped, marked for TSO at segSize with l4 as its L4Offset.
func tsoFrame(payloadLen, dataOff, l4, segSize, cut int) *packet.Packet {
	data := hdr.NewBuilder().Eth(hdr.MAC{2, 0, 0, 0, 0, 1}, hdr.MAC{2, 0, 0, 0, 0, 2}).
		IPv4H(hdr.MakeIP4(10, 0, 0, 1), hdr.MakeIP4(10, 0, 0, 2), 64).
		TCPH(1, 2, 0, 0, hdr.TCPAck).PayloadLen(payloadLen).Build()
	for i := 54; i < len(data); i++ {
		data[i] = byte(i * 7)
	}
	data[46] = byte(dataOff)<<4 | data[46]&0x0f
	p := packet.New(data[:len(data)-min(cut, len(data))])
	p.L4Offset = l4
	p.SegSize = segSize
	p.InPort, p.RecircID, p.CtZone = 7, 3, 9
	p.Offloads = packet.TSO | packet.CsumPartial
	return p
}

// onWire is the frames an egress sends for p: the segments, or p itself when
// there is nothing to split.
func onWire(p *packet.Packet, segs []*packet.Packet) [][]byte {
	if segs == nil {
		return [][]byte{p.Data}
	}
	out := make([][]byte, len(segs))
	for i, s := range segs {
		out[i] = s.Data
	}
	return out
}

// refOnWire runs a reference behind its caller's test: split a frame longer
// than threshold.
func refOnWire(p *packet.Packet, ref func(*packet.Packet) []*packet.Packet, threshold int) [][]byte {
	if p.SegSize > 0 && len(p.Data) > threshold {
		return onWire(p, ref(p))
	}
	return onWire(p, nil)
}

func sameFrames(a, b [][]byte) bool { return slices.EqualFunc(a, b, bytes.Equal) }

// disagreement names why the two references send different frames for p:
// one of the three cases Segment settles for the NIC's, or "" for none.
func disagreement(p *packet.Packet) string {
	n, l4 := len(p.Data), p.L4Offset
	switch {
	case l4 > 0 && l4+hdr.TCPMinSize <= n && p.Data[l4+12]>>4 < 5:
		return "data offset < 5"
	case l4 > 0 && l4 <= n && l4+hdr.TCPMinSize > n:
		return "truncated TCP header"
	case p.SegSize < n && n <= p.SegSize+64:
		return "threshold band"
	}
	return ""
}

// checkSegments asserts Segment's contract on p: nil exactly when the
// payload beyond the one header rule's length fits in SegSize; otherwise
// ceil(payload/SegSize) segments, each the header plus at most SegSize
// payload bytes, whose payloads concatenate to p's, and whose metadata is
// p's without SegSize and the TSO bit.
func checkSegments(t *testing.T, p *packet.Packet, segs []*packet.Packet) {
	t.Helper()
	// The header rule, as stated: L4Offset plus the TCP data offset floored
	// at 20 bytes, 54 without room for a TCP header, capped at the frame.
	h := 54
	if l4 := p.L4Offset; l4 > 0 && l4+hdr.TCPMinSize <= len(p.Data) {
		h = l4 + max(hdr.TCPMinSize, int(p.Data[l4+12]>>4)*4)
	}
	h = min(h, len(p.Data))
	payload := p.Data[h:]
	if p.SegSize <= 0 || len(payload) <= p.SegSize {
		if segs != nil {
			t.Fatalf("%d segments of a %d-byte payload at SegSize %d, want nil", len(segs), len(payload), p.SegSize)
		}
		return
	}
	if want := (len(payload) + p.SegSize - 1) / p.SegSize; len(segs) != want {
		t.Fatalf("%d segments of a %d-byte payload at SegSize %d, want %d", len(segs), len(payload), p.SegSize, want)
	}
	want := p.Metadata
	want.SegSize = 0
	want.Offloads &^= packet.TSO
	var joined []byte
	for i, s := range segs {
		if len(s.Data) < h || len(s.Data)-h > p.SegSize || !bytes.Equal(s.Data[:h], p.Data[:h]) {
			t.Fatalf("segment %d: %d bytes, want the %d-byte header plus at most %d", i, len(s.Data), h, p.SegSize)
		}
		if s.Metadata != want {
			t.Fatalf("segment %d metadata %+v, want %+v", i, s.Metadata, want)
		}
		joined = append(joined, s.Data[h:]...)
	}
	if !bytes.Equal(joined, payload) {
		t.Fatal("segment payloads do not concatenate to the super-frame's")
	}
}

// TestSegmentMatchesReferences: on seeded random frames, Segment sends what
// both old segmenters sent wherever they agree, and what the NIC's sent at
// each of the three disagreements, every one of which the frames reach.
func TestSegmentMatchesReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	seen := map[string]int{}
	for i := 0; i < 20000; i++ {
		payloadLen := rng.Intn(4000)
		frameLen := 54 + payloadLen
		segSize := 1 + rng.Intn(9000)
		if rng.Intn(2) == 0 {
			segSize = max(1, frameLen-rng.Intn(130))
		}
		l4 := []int{-1, 0, 34, 34, frameLen - rng.Intn(30), rng.Intn(2 * frameLen)}[rng.Intn(6)]
		cut := 0
		if rng.Intn(4) == 0 {
			cut = rng.Intn(frameLen)
		}
		p := tsoFrame(payloadLen, rng.Intn(16), l4, segSize, cut)
		segs := p.Segment()
		checkSegments(t, p, segs)
		got := onWire(p, segs)
		core := refOnWire(p, refCoreSegment, p.SegSize+64)
		nic := refOnWire(p, refNICSegment, p.SegSize)
		if sameFrames(core, nic) {
			if !sameFrames(got, nic) {
				t.Fatalf("frame %d (len %d, L4Offset %d, SegSize %d): %d frames, the references agree on %d", i, len(p.Data), p.L4Offset, p.SegSize, len(got), len(nic))
			}
			continue
		}
		why := disagreement(p)
		if why == "" {
			t.Fatalf("frame %d (len %d, L4Offset %d, SegSize %d): the references disagree in an unknown case", i, len(p.Data), p.L4Offset, p.SegSize)
		}
		seen[why]++
		if !sameFrames(got, nic) {
			t.Fatalf("frame %d (%s): %d frames, want the NIC segmenter's %d", i, why, len(got), len(nic))
		}
	}
	for _, why := range []string{"data offset < 5", "truncated TCP header", "threshold band"} {
		if seen[why] == 0 {
			t.Errorf("no frame reached the disagreement %q", why)
		}
	}
	t.Logf("disagreements settled: %v", seen)
}

// TestSegmentPinsDisagreements: one frame per disagreement, with the header
// length and segment count Segment chose.
func TestSegmentPinsDisagreements(t *testing.T) {
	for _, c := range []struct {
		name         string
		p            *packet.Packet
		hdrLen, segs int
	}{
		// The core replicated 34+8 bytes; a TCP header is at least 20.
		{"data offset < 5", tsoFrame(3000, 2, 34, 1000, 0), 54, 3},
		// L4Offset leaves 10 bytes: the core replicated 2990 bytes and
		// sent one frame.
		{"truncated TCP header", tsoFrame(3000, 5, 3044, 1000, 0), 54, 3},
		// 1,470 payload bytes at MSS 1,460: the core's SegSize+64 test
		// sent the frame whole.
		{"threshold band", tsoFrame(1470, 5, 34, 1460, 0), 54, 2},
	} {
		segs := c.p.Segment()
		if len(segs) != c.segs || len(segs[0].Data) != c.hdrLen+c.p.SegSize {
			t.Errorf("%s: %d segments, want %d with a %d-byte header", c.name, len(segs), c.segs, c.hdrLen)
			continue
		}
		checkSegments(t, c.p, segs)
		if segs[0].Offloads&packet.TSO != 0 {
			t.Errorf("%s: segment keeps the TSO bit", c.name)
		}
	}
}

// FuzzSegment: any data offset (0-15), a TCP header cut short, L4Offset unset,
// in range or not, and SegSize from 1 to 9000. Segment must not panic, must
// keep its contract (checkSegments) and must send the NIC segmenter's frames,
// and no segment may keep TSO, SegSize or a changed L4Offset.
func FuzzSegment(f *testing.F) {
	f.Add(uint16(16000), uint8(5), int16(34), uint16(1460), uint16(0))
	f.Add(uint16(3000), uint8(2), int16(34), uint16(1000), uint16(0))
	f.Add(uint16(3000), uint8(5), int16(3044), uint16(1000), uint16(0))
	f.Add(uint16(1470), uint8(15), int16(-1), uint16(1460), uint16(1500))
	f.Fuzz(func(t *testing.T, payloadLen uint16, dataOff uint8, l4 int16, segSize, cut uint16) {
		p := tsoFrame(int(payloadLen%20000), int(dataOff%16), int(l4), 1+int(segSize%9000), int(cut))
		segs := p.Segment()
		checkSegments(t, p, segs)
		if !sameFrames(onWire(p, segs), refOnWire(p, refNICSegment, p.SegSize)) {
			t.Fatal("frames differ from the NIC segmenter's")
		}
		for _, s := range segs {
			if s.Offloads&packet.TSO != 0 || s.SegSize != 0 || s.L4Offset != p.L4Offset {
				t.Fatalf("segment metadata %+v", s.Metadata)
			}
		}
	})
}
