package server

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
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
	body := w.Body.String()
	for _, line := range []string{
		`bwaserve_requests_total{kind="single"} 1`,
		`bwaserve_reads_total 20`,
		`bwaserve_reads_inflight 0`,
		`bwaserve_batches_total`,
		`bwaserve_workers 4`,
		`bwaserve_stage_seconds{stage="SMEM"}`,
		`bwaserve_stage_seconds{stage="BSW"}`,
		`bwaserve_stage_seconds_total`,
	} {
		if !strings.Contains(body, line) {
			t.Errorf("metrics output missing %q", line)
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
// each bwaserve_stage_seconds{stage=S} prints the same value as
// bwaserve_stage_task_seconds_sum{stage=S}, and bwaserve_stage_seconds_total
// is their sum (to the printed precision).
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

	value := func(series string) string {
		for _, line := range strings.Split(body, "\n") {
			if v, ok := strings.CutPrefix(line, series+" "); ok {
				return v
			}
		}
		t.Fatalf("metrics missing %s", series)
		return ""
	}
	var sum float64
	for _, st := range counters.Stages() {
		label := fmt.Sprintf("{stage=%q}", st.String())
		clock, hist := value("bwaserve_stage_seconds"+label), value("bwaserve_stage_task_seconds_sum"+label)
		if clock != hist {
			t.Errorf("stage %s: bwaserve_stage_seconds %s, bwaserve_stage_task_seconds_sum %s", st, clock, hist)
		}
		v, err := strconv.ParseFloat(clock, 64)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	if sum == 0 {
		t.Fatal("no stage time recorded after serving reads")
	}
	total, err := strconv.ParseFloat(value("bwaserve_stage_seconds_total"), 64)
	if err != nil {
		t.Fatal(err)
	}
	// Each printed stage value is rounded to 1µs; so is the total.
	if slack := float64(counters.NumStages+1) * 0.5e-6; math.Abs(total-sum) > slack {
		t.Errorf("bwaserve_stage_seconds_total %.6f, stage values sum to %.6f", total, sum)
	}
}
