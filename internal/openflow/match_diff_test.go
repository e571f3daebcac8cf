package openflow

import (
	"bytes"
	"math/rand"
	"testing"

	"ovsxdp/internal/flow"
	"ovsxdp/internal/ofproto"
)

// randomMatch draws every field of flow.Fields at random and, row by row of
// flow.MatchFields, one of: no mask, the exact mask, a mask of the row's
// kind (a prefix length, a bit set), or arbitrary bits the row's kind cannot
// state. Fields without a row get arbitrary mask bits too; neither codec may
// look at them.
func randomMatch(rng *rand.Rand) ofproto.Match {
	var k flow.Key
	for i := range k {
		k[i] = rng.Uint64()
	}
	spec := flow.MatchSpec{Value: k.Unpack()}
	if rng.Intn(4) == 0 {
		spec.Value.RecircID = 0 // the OmitZero row
	}
	if rng.Intn(2) == 0 {
		spec.Value.IPProto = 17 // the tp_src/tp_dst UDP ids
	}
	if rng.Intn(8) == 0 {
		var junk flow.Key
		for i := range junk {
			junk[i] = rng.Uint64()
		}
		spec.Mask = junk.Unpack()
	}
	for i := range flow.MatchFields {
		r := &flow.MatchFields[i]
		var m uint64
		switch rng.Intn(5) {
		case 0, 1:
			m = r.Ones()
		case 2:
			switch r.Mask {
			case flow.MaskPrefix:
				m = r.Ones() &^ (r.Ones() >> rng.Intn(33))
			case flow.MaskBits:
				m = rng.Uint64()
			default:
				m = r.Ones()
			}
		case 3:
			m = rng.Uint64() & rng.Uint64()
		}
		r.Set(&spec.Mask, m)
	}
	return ofproto.NewMatch(spec.Value, spec.PackMask())
}

// exact copies b to a slice with no spare capacity, as ReadMessage delivers
// a body, so a read past the end panics.
func exact(b []byte) []byte { return append(make([]byte, 0, len(b)), b...) }

// decodeBoth runs b through both decoders and fails unless they agree on
// accept-or-reject and, when they accept, on the match and the bytes
// consumed. It reports whether b was accepted.
func decodeBoth(t *testing.T, b []byte) (ofproto.Match, bool) {
	t.Helper()
	want, wantN, wantErr := refDecodeMatch(exact(b))
	got, gotN, gotErr := DecodeMatch(exact(b))
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("decode % x:\n reference error %v\n table error     %v", b, wantErr, gotErr)
	}
	if wantErr == nil && (got != want || gotN != wantN) {
		t.Fatalf("decode % x:\n reference %v (%d bytes)\n table     %v (%d bytes)", b, want, wantN, got, gotN)
	}
	return got, gotErr == nil
}

// TestMatchCodecMatchesReference is the differential of ROADMAP method (b)
// for the OXM codec: over seeded random matches the table-driven encoder
// emits the reference's bytes and the decoders agree on them; and on every
// truncation and every single-byte corruption of the first encodings the
// decoders agree on accept-or-reject and on what they accepted.
func TestMatchCodecMatchesReference(t *testing.T) {
	const matches, mangled = 5000, 40
	rng := rand.New(rand.NewSource(23))
	var truncations, corruptions, accepted int
	for i := 0; i < matches; i++ {
		m := randomMatch(rng)
		want, got := refEncodeMatch(m), EncodeMatch(m)
		if !bytes.Equal(got, want) {
			t.Fatalf("match %d (%v):\n reference % x\n table     % x", i, m, want, got)
		}
		if _, ok := decodeBoth(t, got); !ok {
			t.Fatalf("match %d: own encoding % x rejected", i, got)
		}
		if i >= mangled {
			continue
		}
		for n := range got {
			decodeBoth(t, got[:n])
			truncations++
		}
		b := exact(got)
		for at, orig := range got {
			for v := 0; v < 256; v++ {
				if byte(v) == orig {
					continue
				}
				b[at] = byte(v)
				if _, ok := decodeBoth(t, b); ok {
					accepted++
				}
				corruptions++
			}
			b[at] = orig
		}
	}
	t.Logf("%d matches encoded and decoded, 0 differences; %d truncations and %d single-byte corruptions (%d still decodable) of the first %d, 0 disagreements",
		matches, truncations, corruptions, accepted, mangled)
}

// FuzzMatchCodec: whatever bytes arrive, the two decoders agree; and what
// they decode, the two encoders write identically and the decoders read back
// to the same match. Flow-mod bodies are tried from their match offset too,
// so FuzzDecodeFlowMod's corpus seeds this target.
func FuzzMatchCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 64; i++ {
		f.Add(EncodeMatch(randomMatch(rng)))
	}
	for _, body := range append(encodedFlowMods(), shortOutputFlowMod) {
		for n := 0; n <= len(body); n++ {
			f.Add(body[:n])
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, in := range [][]byte{b, b[min(40, len(b)):]} {
			m, ok := decodeBoth(t, in)
			if !ok {
				continue
			}
			want, got := refEncodeMatch(m), EncodeMatch(m)
			if !bytes.Equal(got, want) {
				t.Fatalf("re-encoding %v:\n reference % x\n table     % x", m, want, got)
			}
			if _, ok := decodeBoth(t, got); !ok {
				t.Fatalf("re-encoding % x of %v rejected", got, m)
			}
		}
	})
}
