package sim

import (
	"encoding/binary"
	"math"
	"math/bits"
	"testing"
)

// compareHistograms records vs into a Histogram and into the exact
// sample-slice reference and requires them to agree: count and mean always
// exactly; percentiles exactly when no bucket mixes distinct values, within
// a bucket's relative width (2^-11) otherwise.
func compareHistograms(t testing.TB, name string, vs []Time) {
	t.Helper()
	var h Histogram
	var ref exactHistogram
	type bucket struct {
		shift int
		top   Time
	}
	distinct := map[bucket]Time{} // bucket -> its one value, or -1 once mixed
	for _, v := range vs {
		h.Record(v)
		if v < 0 {
			v = 0
		}
		ref.Record(float64(v))
		// Values share a bucket when they agree on their magnitude and on
		// their histSubBits+1 leading bits.
		b := bucket{top: v}
		if v >= 2*histSubSize {
			b.shift = bits.Len64(uint64(v)) - 1 - histSubBits
			b.top = v >> uint(b.shift)
		}
		if old, ok := distinct[b]; ok && old != v {
			distinct[b] = -1
		} else if !ok {
			distinct[b] = v
		}
	}
	exact := true
	for _, v := range distinct {
		exact = exact && v >= 0
	}
	if h.Count() != ref.Count() || h.Mean() != ref.Mean() {
		t.Fatalf("%s: count %d mean %v, reference %d %v", name, h.Count(), h.Mean(), ref.Count(), ref.Mean())
	}
	for _, p := range []float64{-1, 0, 1, 25, 50, 75, 90, 99, 99.9, 100, 101} {
		got, want := h.Percentile(p), ref.Percentile(p)
		if exact && got != want {
			t.Fatalf("%s: P%v = %v, reference %v (every bucket holds one value)", name, p, got, want)
		}
		if math.Abs(got-want) > want/histSubSize {
			t.Fatalf("%s: P%v = %v, reference %v: off by more than 2^-%d", name, p, got, want, histSubBits)
		}
	}
	if s, r := h.Summarize(), (Summary{ref.Percentile(50), ref.Percentile(90), ref.Percentile(99)}); exact && s != r {
		t.Fatalf("%s: summary %v, reference %v", name, s, r)
	}
}

func TestLogLinearMatchesExact(t *testing.T) {
	r := NewRand(19)
	stream := func(n int, gen func(i int) Time) []Time {
		vs := make([]Time, n)
		for i := range vs {
			vs[i] = gen(i)
		}
		return vs
	}
	few := []Time{60 * Microsecond, 61500, 3, 1 << 45, 60*Microsecond + 4096}
	cases := map[string][]Time{
		"empty":          nil,
		"single sample":  {12345},
		"single value":   stream(1000, func(int) Time { return 60 * Microsecond }),
		"few distinct":   stream(5000, func(int) Time { return few[r.Intn(len(few))] }),
		"dense below":    stream(20000, func(int) Time { return Time(r.Intn(2 * histSubSize)) }),
		"dense across":   stream(20000, func(int) Time { return Time(2*histSubSize - 500 + r.Intn(1000)) }),
		"dense above":    stream(20000, func(int) Time { return Time(50000 + r.Intn(100000)) }),
		"past 2^40":      stream(2000, func(int) Time { return Time(1<<40 + r.Uint64()>>(1+uint(r.Intn(22)))) }),
		"past 2^40 few":  stream(2000, func(i int) Time { return Time(1<<uint(41+i%20) + 12345) }),
		"whole range":    stream(5000, func(int) Time { return Time(r.Uint64() >> uint(1+r.Intn(63))) }),
		"negative":       {-5, 7, 9},
		"ramp":           stream(3000, func(i int) Time { return Time(i * 37) }),
		"bucket of two":  {8192, 8193, 8192, 8193},
		"two and a tail": {4096, 4097, 1 << 20, 1<<20 + 1, 1 << 20},
	}
	for name, vs := range cases {
		compareHistograms(t, name, vs)
	}
}

// FuzzHistogram feeds arbitrary sample streams (8 bytes per sample, the top
// byte choosing how many low bits survive so every magnitude is reached)
// through the same comparison as TestLogLinearMatchesExact.
func FuzzHistogram(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, 60000))
	f.Add(append(binary.LittleEndian.AppendUint64(nil, 4095), binary.LittleEndian.AppendUint64(nil, 4096|63<<56)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var vs []Time
		for ; len(data) >= 8; data = data[8:] {
			w := binary.LittleEndian.Uint64(data)
			vs = append(vs, Time(w&(1<<56-1)<<7>>(w>>56&63)))
		}
		compareHistograms(t, "fuzz", vs)
	})
}
