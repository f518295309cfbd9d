package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
