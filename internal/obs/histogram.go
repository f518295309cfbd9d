package obs

import (
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"
)

// Histogram bucket geometry: log2 buckets from 1µs up. Bucket i covers
// durations in (bound[i-1], bound[i]] with bound[i] = 1µs << i, so 28
// buckets reach ~134s — wider than any request the server would let live —
// and everything beyond lands in +Inf. Powers of two keep Observe at a
// handful of instructions (one bits.Len64) while giving Prometheus
// histogram_quantile ~2x-resolution buckets across nine decades.
const (
	histMinNanos = int64(time.Microsecond)
	histBuckets  = 28
)

// bucketSeconds holds the precomputed upper bounds in seconds, and
// bucketBounds the same bounds rendered once for the exposition format
// ("1e-06", "0.001024", ...), which parses back to exactly bucketSeconds.
var bucketSeconds, bucketBounds = func() (s [histBuckets]float64, b [histBuckets]string) {
	for i := range b {
		s[i] = time.Duration(histMinNanos << i).Seconds()
		b[i] = strconv.FormatFloat(s[i], 'g', -1, 64)
	}
	return s, b
}()

// Histogram is a concurrency-safe log-bucketed latency histogram. Observe
// and the read side (Write, Quantile, Count, Sum) may race freely; a
// concurrent reader sees each observation's count and sum independently
// (no torn buckets, but a snapshot is not a point-in-time cut — fine for
// metrics). The zero value is ready to use; a nil *Histogram ignores
// observations, so callers can instrument unconditionally.
type Histogram struct {
	buckets  [histBuckets]atomic.Int64 // per-bucket counts (non-cumulative)
	overflow atomic.Int64              // observations beyond the last bound
	count    atomic.Int64
	sumNanos atomic.Int64
}

// bucketOf maps a duration in nanoseconds to its bucket index, or
// histBuckets for the overflow (+Inf-only) range.
func bucketOf(ns int64) int {
	if ns <= histMinNanos {
		return 0
	}
	// Smallest i with ns <= histMinNanos<<i.
	i := bits.Len64(uint64((ns - 1) / histMinNanos))
	if i >= histBuckets {
		return histBuckets
	}
	return i
}

// Observe records one duration. Negative durations count as zero (clock
// skew between timestamps must not corrupt the distribution).
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	if i := bucketOf(ns); i < histBuckets {
		h.buckets[i].Add(1)
	} else {
		h.overflow.Add(1)
	}
	h.count.Add(1)
	h.sumNanos.Add(ns)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the summed observed time.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sumNanos.Load())
}

// Quantile estimates the q-th quantile (0 < q <= 1) in seconds with
// BucketQuantile, so a test computing p99 here and a dashboard computing
// it from the exposition agree. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	var cum [histBuckets]int64
	var n int64
	for i := range cum {
		n += h.buckets[i].Load()
		cum[i] = n
	}
	return BucketQuantile(q, bucketSeconds[:], cum[:], h.count.Load())
}

// BucketQuantile estimates the q-th quantile of a histogram given as
// ascending finite upper bounds, the cumulative count at each bound, and
// the cumulative total at +Inf. It applies the same piecewise-linear
// interpolation as Prometheus's histogram_quantile: a rank beyond the last
// finite bound resolves to that bound. Returns 0 when total is 0.
func BucketQuantile(q float64, bounds []float64, cum []int64, total int64) float64 {
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	prev := int64(0)
	for i, c := range cum {
		if c == prev {
			continue
		}
		if float64(c) >= rank {
			lower := 0.0
			if i > 0 {
				lower = bounds[i-1]
			}
			return lower + (bounds[i]-lower)*(rank-float64(prev))/float64(c-prev)
		}
		prev = c
	}
	return bounds[len(bounds)-1]
}

// Write emits the histogram in Prometheus text exposition format:
// cumulative <name>_bucket series with le labels, then <name>_sum and
// <name>_count. labels, when non-empty, is a rendered label pair list
// (e.g. `kind="single"`) prepended to each bucket's le label and attached
// to the sum and count series, so one family can carry several labeled
// histograms.
func (h *Histogram) Write(w io.Writer, name, labels string) error {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, bucketBounds[i], cum); err != nil {
			return err
		}
	}
	cum += h.overflow.Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum); err != nil {
		return err
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %.6f\n", name, suffix, h.Sum().Seconds()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, h.count.Load())
	return err
}
