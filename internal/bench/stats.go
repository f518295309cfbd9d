package bench

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// Summary is one metric of one workload: the reported value plus the
// quartiles and sample count of the samples it was taken from, so a reader
// (and -compare) can tell a settled number from a noisy one.
type Summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// Spread is the interquartile distance as a share of the value: the
// run-to-run noise measure every bound is compared against.
func (s Summary) Spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Value)
}

// summarize reports the median of samples with its quartiles.
func summarize(samples []float64, unit string) Summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return Summary{Value: quantile(s, 0.5), Unit: unit,
		Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// exact is a metric that is a single count, not a sample median.
func exact(v float64, unit string) Summary {
	return Summary{Value: v, Unit: unit, Q1: v, Q3: v, N: 1}
}

// percentileLadder is the percentiles a latency report may name, lowest
// first.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// minTailSamples is how many samples must lie beyond a percentile before it
// is reported: fewer and the "percentile" is a handful of outliers.
const minTailSamples = 10

// pickPercentile returns the highest percentile of the ladder that still
// has at least minTailSamples samples beyond it among n, and false when not
// even the median qualifies.
func pickPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentileLadder {
		if float64(n)*(100-p)/100 >= minTailSamples-1e-9 { // 100-99.9 is not exactly 0.1
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile is the nearest-rank p-th percentile (0..100) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}
