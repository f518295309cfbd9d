package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int // expected bucket index (histBuckets = overflow)
	}{
		{0, 0},
		{-5 * time.Second, 0}, // negative clamps to zero
		{time.Nanosecond, 0},
		{time.Microsecond, 0},                   // exactly the first bound stays in bucket 0
		{time.Microsecond + time.Nanosecond, 1}, // first value past a bound moves up
		{2 * time.Microsecond, 1},
		{2*time.Microsecond + time.Nanosecond, 2},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10},           // 1.024ms bound covers 1ms
		{time.Second, 20},                // 1.048576s bound covers 1s
		{100 * time.Second, 27},          // 134.2s bound covers 100s
		{200 * time.Second, histBuckets}, // beyond the last bound: overflow
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(c.d)
		got := -1
		for i := 0; i < histBuckets; i++ {
			if h.buckets[i].Load() == 1 {
				got = i
			}
		}
		if h.overflow.Load() == 1 {
			got = histBuckets
		}
		if got != c.want {
			t.Errorf("Observe(%v): bucket %d, want %d", c.d, got, c.want)
		}
		if h.Count() != 1 {
			t.Errorf("Observe(%v): count %d", c.d, h.Count())
		}
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// 1000 observations uniform in (0, 100ms]: p50 ≈ 50ms, p99 ≈ 99ms.
	// Log buckets bound the relative error by the bucket width: the value
	// must land inside the bucket the true quantile falls in.
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * 100 * time.Microsecond)
	}
	for _, c := range []struct {
		q      float64
		lo, hi float64 // true-quantile bucket bounds, in seconds
	}{
		{0.50, 0.032768, 0.065536}, // 50ms lands in (32.8ms, 65.5ms]
		{0.99, 0.065536, 0.131072}, // 99ms lands in (65.5ms, 131ms]
		{1.00, 0.065536, 0.131072}, // max = 100ms, same bucket
	} {
		got := h.Quantile(c.q)
		if got <= c.lo || got > c.hi {
			t.Errorf("Quantile(%v) = %v, want in (%v, %v]", c.q, got, c.lo, c.hi)
		}
	}
	if got := h.Quantile(0.5); math.Abs(got-0.050) > 0.020 {
		t.Errorf("p50 interpolation %v too far from 50ms", got)
	}

	var empty Histogram
	if got := empty.Quantile(0.99); got != 0 {
		t.Errorf("empty histogram quantile = %v", got)
	}
	var nilH *Histogram
	nilH.Observe(time.Second) // must not panic
	if nilH.Quantile(0.5) != 0 || nilH.Count() != 0 {
		t.Error("nil histogram should read as empty")
	}
}

func TestHistogramQuantileOverflowClamps(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Second) // beyond the last finite bound
	want := time.Duration(histMinNanos << (histBuckets - 1)).Seconds()
	if got := h.Quantile(0.99); got != want {
		t.Errorf("overflow quantile = %v, want last bound %v", got, want)
	}
}

// TestHistogramExpositionGolden locks the Prometheus text exposition
// format: one TYPE line, cumulative le buckets, +Inf equal to _count,
// labeled and unlabeled forms.
func TestHistogramExpositionGolden(t *testing.T) {
	var h Histogram
	h.Observe(600 * time.Nanosecond) // bucket 0 (le 1e-06)
	h.Observe(3 * time.Microsecond)  // bucket 2 (le 4e-06)
	h.Observe(3 * time.Microsecond)
	h.Observe(200 * time.Second) // overflow

	var w MetricsWriter
	w.Histogram("x_seconds", &h, "kind", "single")
	got := string(w.Bytes())
	wantLines := []string{
		`# TYPE x_seconds histogram`,
		`x_seconds_bucket{kind="single",le="1e-06"} 1`,
		`x_seconds_bucket{kind="single",le="2e-06"} 1`,
		`x_seconds_bucket{kind="single",le="4e-06"} 3`,
		`x_seconds_bucket{kind="single",le="8e-06"} 3`,
		`x_seconds_bucket{kind="single",le="134.217728"} 3`,
		`x_seconds_bucket{kind="single",le="+Inf"} 4`,
		`x_seconds_sum{kind="single"} 200.0000066`,
		`x_seconds_count{kind="single"} 4`,
	}
	for _, line := range wantLines {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("exposition missing line %q in:\n%s", line, got)
		}
	}
	// One TYPE line, exactly histBuckets+1 bucket lines, one sum, one count.
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != histBuckets+4 {
		t.Errorf("exposition has %d lines, want %d", len(lines), histBuckets+4)
	}

	// Unlabeled form has no stray comma or braces on sum/count.
	w = MetricsWriter{}
	var h2 Histogram
	h2.Observe(time.Millisecond)
	w.Histogram("y_seconds", &h2)
	for _, line := range []string{
		`y_seconds_bucket{le="0.001024"} 1`,
		`y_seconds_bucket{le="+Inf"} 1`,
		`y_seconds_sum 0.001`,
		`y_seconds_count 1`,
	} {
		if !strings.Contains(string(w.Bytes()), line+"\n") {
			t.Errorf("unlabeled exposition missing %q in:\n%s", line, w.Bytes())
		}
	}
}

// TestHistogramConcurrentRecording hammers one histogram from many
// goroutines while readers snapshot it; run under -race this is the
// concurrency-safety proof, and the final counts must balance exactly.
func TestHistogramConcurrentRecording(t *testing.T) {
	const (
		goroutines = 8
		perG       = 5000
	)
	var h Histogram
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers: exposition and quantiles while writes land.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var w MetricsWriter
				w.Histogram("z", &h)
				_ = h.Quantile(0.99)
			}
		}()
	}
	var writers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(g*perG+i) * time.Microsecond)
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	if h.Count() != goroutines*perG {
		t.Fatalf("count %d, want %d", h.Count(), goroutines*perG)
	}
	var inBuckets int64
	for i := 0; i < histBuckets; i++ {
		inBuckets += h.buckets[i].Load()
	}
	inBuckets += h.overflow.Load()
	if inBuckets != h.Count() {
		t.Fatalf("bucket total %d != count %d", inBuckets, h.Count())
	}
}
