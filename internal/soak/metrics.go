package soak

import (
	"fmt"
	"regexp"
	"strconv"

	"repro/internal/obs"
)

// Exposition parsing: the soak harness reads the target's /v1/metrics the
// way a dashboard would — histogram buckets for quantiles, gauges for
// runtime growth — so the invariants it asserts are exactly the numbers
// an operator sees.

// bucketDist is one parsed Prometheus histogram: ascending finite upper
// bounds with their cumulative counts, plus the +Inf cumulative total.
type bucketDist struct {
	bounds []float64
	counts []int64
	total  int64 // cumulative count at le="+Inf"
}

// parseBuckets extracts the <family>_bucket series carrying the given
// rendered label list (e.g. `kind="single"`) from exposition text. Returns
// nil when the family/label combination is absent.
func parseBuckets(text, family, labels string) *bucketDist {
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(family+"_bucket{"+labels+",le=") +
		`"([^"]+)"\} (\d+)$`)
	var d bucketDist
	for _, m := range re.FindAllStringSubmatch(text, -1) {
		n, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		if m[1] == "+Inf" {
			d.total = n
			continue
		}
		ub, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			continue
		}
		d.bounds = append(d.bounds, ub)
		d.counts = append(d.counts, n)
	}
	if len(d.bounds) == 0 {
		return nil
	}
	return &d
}

// quantile estimates the q-th quantile in seconds with
// obs.BucketQuantile, the interpolation obs.Histogram.Quantile uses.
func (d *bucketDist) quantile(q float64) float64 {
	if d == nil {
		return 0
	}
	return obs.BucketQuantile(q, d.bounds, d.counts, d.total)
}

// quantiles summarizes one parsed distribution.
func (d *bucketDist) quantiles() Quantiles {
	if d == nil {
		return Quantiles{}
	}
	return Quantiles{
		Count: d.total,
		P50:   d.quantile(0.50),
		P90:   d.quantile(0.90),
		P99:   d.quantile(0.99),
	}
}

// scrapeGauge pulls one un-labelled numeric series from exposition text.
func scrapeGauge(text, name string) (float64, bool) {
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9eE+.-]+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		return 0, false
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// metricPrefixes are the exposition prefixes a soak target can answer
// with: bwaserve_* from a replica, bwagate_* when the target is the
// gateway tier. Both expose the same histogram and runtime-gauge shapes.
var metricPrefixes = []string{"bwaserve", "bwagate"}

// serverRuntimeSample reads the target's runtime gauges from exposition
// text; ok is false when the target does not expose them (e.g. a stub).
func serverRuntimeSample(text string) (RuntimeSample, bool) {
	for _, prefix := range metricPrefixes {
		g, okG := scrapeGauge(text, prefix+"_go_goroutines")
		h, okH := scrapeGauge(text, prefix+"_go_heap_alloc_bytes")
		if okG && okH {
			return RuntimeSample{Goroutines: int(g), HeapAllocBytes: h}, true
		}
	}
	return RuntimeSample{}, false
}

// requestLatency parses the target's request_seconds histograms for the
// align request kinds out of exposition text.
func requestLatency(text string) map[string]Quantiles {
	out := make(map[string]Quantiles)
	for _, kind := range []string{"single", "paired"} {
		for _, prefix := range metricPrefixes {
			if d := parseBuckets(text, prefix+"_request_seconds", fmt.Sprintf("kind=%q", kind)); d != nil {
				out[kind] = d.quantiles()
				break
			}
		}
	}
	return out
}
