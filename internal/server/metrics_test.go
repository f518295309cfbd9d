package server

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/counters"
	"repro/internal/seq"
)

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, testConfig())
	_, reads, _, _ := setup(t)

	// Drive some traffic so counters and stage clocks are nonzero.
	if w := post(s, "/align", "", fastqBody(reads[:20])); w.Code != http.StatusOK {
		t.Fatalf("align: status %d", w.Code)
	}

	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", w.Code)
	}
	m := parseMetrics(t, w.Body.String())
	for _, c := range []struct {
		name   string
		labels []string
		want   float64 // -1: any value
	}{
		{"bwaserve_requests_total", []string{"kind", "single"}, 1},
		{"bwaserve_reads_total", nil, 20},
		{"bwaserve_reads_inflight", nil, 0},
		{"bwaserve_batches_total", nil, -1},
		{"bwaserve_workers", nil, 4},
		{"bwaserve_stage_seconds", []string{"stage", "SMEM"}, -1},
		{"bwaserve_stage_seconds", []string{"stage", "BSW"}, -1},
		{"bwaserve_stage_seconds_total", nil, -1},
	} {
		if v := metricValue(t, m, c.name, c.labels...); c.want >= 0 && v != c.want {
			t.Errorf("%s%q = %v, want %v", c.name, c.labels, v, c.want)
		}
	}
	// Per-stage kernel time must actually accumulate from served traffic.
	clock := s.sched.Clock()
	if clock.Total() == 0 || clock.Kernels() == 0 {
		t.Fatal("scheduler clock empty after serving reads")
	}

	if w := post(s, "/metrics", "", fastqBody(reads[:1])); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics: status %d", w.Code)
	}
}

func TestHealthzEndpoint(t *testing.T) {
	s := newTestServer(t, testConfig())
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{`"status":"ok"`, `"reads_inflight":0`, `"workers":4`, `"reference_bp":60000`} {
		if !strings.Contains(body, want) {
			t.Errorf("healthz missing %q in %s", want, body)
		}
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("healthz content type %q", ct)
	}

	// readyz: 200 + "ready" while serving (503 once drain begins is
	// asserted alongside Shutdown in server_test.go).
	rw := httptest.NewRecorder()
	s.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/v1/readyz", nil))
	if rw.Code != http.StatusOK || !strings.Contains(rw.Body.String(), `"status":"ready"`) {
		t.Fatalf("readyz: %d %s", rw.Code, rw.Body.String())
	}
	if ct := rw.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("readyz content type %q", ct)
	}
}

// TestStageSecondsMatchTaskHistograms: after single-end and paired traffic,
// each bwaserve_stage_seconds{stage=S} reads back the same value as
// bwaserve_stage_task_seconds_sum{stage=S}, and bwaserve_stage_seconds_total
// is their sum (to float rounding).
func TestStageSecondsMatchTaskHistograms(t *testing.T) {
	_, reads, r1, r2 := setup(t)
	cfg := testConfig()
	cfg.CacheEnabled = false
	s := newTestServer(t, cfg)
	if w := post(s, "/v1/align?header=0", "application/x-fastq", fastqBody(reads[:200])); w.Code != http.StatusOK {
		t.Fatalf("align: status %d", w.Code)
	}
	inter := make([]seq.Read, 0, 2*len(r1))
	for i := range r1 {
		inter = append(inter, r1[i], r2[i])
	}
	if w := post(s, "/v1/align/paired?header=0", "application/x-fastq", fastqBody(inter)); w.Code != http.StatusOK {
		t.Fatalf("paired: status %d", w.Code)
	}
	// Parking every worker means each has finished recording the tasks it
	// ran before, so the scrape below sees no task half-recorded.
	release := occupyWorkers(t, s)
	body := get(s, "/v1/metrics").Body.String()
	release()

	m := parseMetrics(t, body)
	var sum float64
	for _, st := range counters.Stages() {
		clock := metricValue(t, m, "bwaserve_stage_seconds", "stage", st.String())
		hist := metricValue(t, m, "bwaserve_stage_task_seconds_sum", "stage", st.String())
		if clock != hist {
			t.Errorf("stage %s: bwaserve_stage_seconds %v, bwaserve_stage_task_seconds_sum %v", st, clock, hist)
		}
		sum += clock
	}
	if sum == 0 {
		t.Fatal("no stage time recorded after serving reads")
	}
	total := metricValue(t, m, "bwaserve_stage_seconds_total")
	// Values are written exactly, so the sum differs only by float rounding.
	if math.Abs(total-sum) > 1e-9 {
		t.Errorf("bwaserve_stage_seconds_total %v, stage values sum to %v", total, sum)
	}
}
