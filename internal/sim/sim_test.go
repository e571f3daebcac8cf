package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestEngineFIFOAmongEqualTimestamps(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken order wrong at %d: %v", i, order)
		}
	}
}

func TestEngineScheduleFromWithinEvent(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.Schedule(10, func() {
		fired = append(fired, e.Now())
		e.Schedule(5, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("nested scheduling wrong: %v", fired)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.Schedule(10, func() { ran++ })
	e.Schedule(100, func() { ran++ })
	e.RunUntil(50)
	if ran != 1 {
		t.Fatalf("ran %d events, want 1", ran)
	}
	if e.Now() != 50 {
		t.Fatalf("clock = %v, want 50", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if ran != 2 || e.Now() != 100 {
		t.Fatalf("resume failed: ran=%d now=%v", ran, e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.Schedule(1, func() { ran++; e.Stop() })
	e.Schedule(2, func() { ran++ })
	e.Run()
	if ran != 1 {
		t.Fatalf("Stop did not halt the loop: ran=%d", ran)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.ScheduleAt(5, func() {})
	})
	e.Run()
}

func TestCPUSerializesWork(t *testing.T) {
	e := NewEngine(1)
	c := e.NewCPU("test")
	var done []Time
	e.Schedule(0, func() {
		c.Exec(User, 100, func() { done = append(done, e.Now()) })
		c.Exec(User, 50, func() { done = append(done, e.Now()) })
	})
	e.Run()
	if len(done) != 2 || done[0] != 100 || done[1] != 150 {
		t.Fatalf("CPU did not serialize: %v", done)
	}
	if c.Busy(User) != 150 {
		t.Fatalf("busy = %v, want 150", c.Busy(User))
	}
}

func TestCPUStartsNoEarlierThanNow(t *testing.T) {
	e := NewEngine(1)
	c := e.NewCPU("test")
	e.Schedule(500, func() {
		end := c.Exec(Softirq, 10, nil)
		if end != 510 {
			t.Errorf("end = %v, want 510", end)
		}
	})
	e.Run()
}

func TestCPUCategories(t *testing.T) {
	e := NewEngine(1)
	c := e.NewCPU("mixed")
	c.Consume(User, 10)
	c.Consume(System, 20)
	c.Consume(Softirq, 30)
	c.Consume(Guest, 40)
	if c.BusyTotal() != 100 {
		t.Fatalf("total busy = %v, want 100", c.BusyTotal())
	}
	u := e.CPUReport(1000)
	if math.Abs(u[User]-0.01) > 1e-9 || math.Abs(u[Guest]-0.04) > 1e-9 {
		t.Fatalf("report wrong: %+v", u)
	}
	if math.Abs(u.Total()-0.1) > 1e-9 {
		t.Fatalf("total = %v, want 0.1", u.Total())
	}
}

func TestUsageString(t *testing.T) {
	var u Usage
	u[User] = 1.9
	u[Softirq] = 0.8
	got := u.String()
	want := "system=0.0 softirq=0.8 guest=0.0 user=1.9 total=2.7"
	if got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestNegativeCostPanics(t *testing.T) {
	e := NewEngine(1)
	c := e.NewCPU("x")
	defer func() {
		if recover() == nil {
			t.Error("negative cost did not panic")
		}
	}()
	c.Consume(User, -1)
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	if NewRand(1).Uint64() == NewRand(2).Uint64() {
		t.Fatal("different seeds produced identical first values")
	}
}

func TestRandUniformity(t *testing.T) {
	r := NewRand(7)
	const n = 100000
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		buckets[r.Intn(10)]++
	}
	for i, b := range buckets {
		if b < n/10-n/50 || b > n/10+n/50 {
			t.Fatalf("bucket %d has %d hits, want ~%d", i, b, n/10)
		}
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(9)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(5.0)
	}
	mean := sum / n
	if mean < 4.9 || mean > 5.1 {
		t.Fatalf("Exp mean = %v, want ~5.0", mean)
	}
}

func TestRandNormalMoments(t *testing.T) {
	r := NewRand(11)
	var sum, sumsq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if mean < 9.95 || mean > 10.05 {
		t.Fatalf("Normal mean = %v, want ~10", mean)
	}
	if variance < 3.8 || variance > 4.2 {
		t.Fatalf("Normal variance = %v, want ~4", variance)
	}
}

func TestRandFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		for i := 0; i < 50; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Record(Time(i))
	}
	if p := h.Percentile(50); math.Abs(p-50.5) > 0.01 {
		t.Fatalf("P50 = %v, want 50.5", p)
	}
	if p := h.Percentile(99); math.Abs(p-99.01) > 0.01 {
		t.Fatalf("P99 = %v, want 99.01", p)
	}
	if h.Percentile(0) != 1 || h.Percentile(100) != 100 {
		t.Fatalf("min/max = %v/%v", h.Percentile(0), h.Percentile(100))
	}
	if m := h.Mean(); math.Abs(m-50.5) > 0.01 {
		t.Fatalf("mean = %v, want 50.5", m)
	}
}

func TestHistogramRecordAfterQuery(t *testing.T) {
	var h Histogram
	h.Record(10)
	_ = h.Percentile(50)
	h.Record(1) // a read must not freeze the histogram
	if h.Percentile(0) != 1 {
		t.Fatalf("min = %v after interleaved record, want 1", h.Percentile(0))
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Percentile(50) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramPercentileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		var h Histogram
		for i := 0; i < 200; i++ {
			h.Record(Time(r.Float64() * 1e6))
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}
