package obs

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestQuantileParity locks the exposition-side quantile math to
// Histogram's: parsing the buckets a histogram writes and re-deriving
// quantiles must reproduce Quantile exactly — the soak SLO check judges the
// server by the same numbers a dashboard would show.
func TestQuantileParity(t *testing.T) {
	h := &Histogram{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		h.Observe(time.Duration(rng.Intn(2_000_000)) * time.Microsecond)
	}
	var w MetricsWriter
	w.Histogram("bwaserve_request_seconds", h, "kind", "single")
	m, err := ParseMetrics(string(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	d := m.Buckets("bwaserve_request_seconds", "kind", "single")
	if d == nil {
		t.Fatal("Buckets found nothing in the histogram's own exposition")
	}
	if d.Total != h.Count() {
		t.Fatalf("parsed total %d, histogram count %d", d.Total, h.Count())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := h.Quantile(q)
		got := d.Quantile(q)
		if diff := got - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("q%.2f: exposition-side %v, histogram-side %v", q, got, want)
		}
	}
}

func TestParseBucketsAbsentFamily(t *testing.T) {
	m, err := ParseMetrics("# nothing here\n")
	if err != nil {
		t.Fatal(err)
	}
	if d := m.Buckets("bwaserve_request_seconds", "kind", "single"); d != nil {
		t.Fatalf("Buckets fabricated %+v from empty exposition", d)
	}
}

// TestMetricsWriterRoundTrip writes interleaved families and reads them
// back: each family comes out once, contiguous, under one TYPE line, and
// every label value and number survives the trip.
func TestMetricsWriterRoundTrip(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	var w MetricsWriter
	odd := "a \"quoted\" \\ value,with}=\nnewline"
	for _, r := range []string{"r1", odd} {
		w.Gauge("t_state", 1, "replica", r, "state", "up")
		w.Counter("t_assigned_total", 12345678, "replica", r)
		w.Histogram("t_upstream_seconds", &h, "replica", r)
	}
	w.Gauge("t_uptime_seconds", 0.125)
	m, err := ParseMetrics(string(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var names, types []string
	for i, s := range m {
		if i == 0 || s.Family != m[i-1].Family {
			names, types = append(names, s.Family), append(types, s.Type)
		}
	}
	if want := []string{"t_state", "t_assigned_total", "t_upstream_seconds", "t_uptime_seconds"}; !slices.Equal(names, want) {
		t.Fatalf("families %v, want %v", names, want)
	}
	if want := []string{"gauge", "counter", "histogram", "gauge"}; !slices.Equal(types, want) {
		t.Fatalf("types %v, want %v", types, want)
	}
	if n := strings.Count(string(w.Bytes()), "# TYPE "); n != len(names) {
		t.Fatalf("%d TYPE lines for %d families", n, len(names))
	}
	if v, ok := m.Value("t_assigned_total", "replica", odd); !ok || v != 12345678 {
		t.Fatalf("t_assigned_total{replica=odd} = %v, %v", v, ok)
	}
	if v, ok := m.Value("t_state", "replica", "r1", "state", "up"); !ok || v != 1 {
		t.Fatalf("t_state read back %v, %v", v, ok)
	}
	if _, ok := m.Value("t_state", "replica", "r1"); ok {
		t.Fatal("Value matched a series on a subset of its labels")
	}
	if v, _ := m.Value("t_uptime_seconds"); v != 0.125 {
		t.Fatalf("t_uptime_seconds = %v", v)
	}
	if b := m.Buckets("t_upstream_seconds", "replica", odd); b == nil || b.Total != 1 || len(b.Bounds) != histBuckets {
		t.Fatalf("upstream buckets %+v", b)
	}
}

func TestMetricsWriterKindConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a family written as gauge and counter did not panic")
		}
	}()
	var w MetricsWriter
	w.Gauge("x", 1)
	w.Counter("x", 1)
}

func TestParseMetricsRejectsMalformed(t *testing.T) {
	for _, text := range []string{
		"novalue\n",
		"x{a=\"b\" 1\n",
		"x{a=b} 1\n",
		"x 1 2 3\n",
		"x one\n",
	} {
		if _, err := ParseMetrics(text); err == nil {
			t.Errorf("ParseMetrics(%q) accepted a malformed line", text)
		}
	}
	m, err := ParseMetrics("# HELP x a help line\nx{a=\"b\",} 1 1700000000000\n")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Value("x", "a", "b"); !ok || v != 1 {
		t.Fatalf("trailing comma and timestamp: %v, %v", v, ok)
	}
}
