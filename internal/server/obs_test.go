package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

// get performs one GET against the server.
func get(s *Server, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// parseMetrics reads a /v1/metrics body with the obs exposition reader.
func parseMetrics(t testing.TB, body string) obs.Metrics {
	t.Helper()
	m, err := obs.ParseMetrics(body)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// metricValue returns one series' value, failing t when it is absent.
func metricValue(t testing.TB, m obs.Metrics, name string, labels ...string) float64 {
	t.Helper()
	v, ok := m.Value(name, labels...)
	if !ok {
		t.Fatalf("metrics missing %s%q", name, labels)
	}
	return v
}

// TestMetricsLatencyHistograms is the tentpole acceptance test: after real
// traffic, /v1/metrics exposes _bucket/_sum/_count series for the request,
// queue-wait, and per-stage kernel histograms, and a p99 derived from the
// buckets the way histogram_quantile would brackets the observed latencies.
func TestMetricsLatencyHistograms(t *testing.T) {
	_, reads, r1, r2 := setup(t)
	cfg := testConfig()
	cfg.CacheEnabled = false
	s := newTestServer(t, cfg)

	const n = 12
	for i := 0; i < n; i++ {
		if w := post(s, "/v1/align?header=0", "application/x-fastq", fastqBody(reads[:20])); w.Code != http.StatusOK {
			t.Fatalf("align %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}
	var pairBody bytes.Buffer
	pairBody.WriteString(`{"reads1":[`)
	pairBody.WriteString(fmt.Sprintf(`{"name":%q,"seq":%q}`, r1[0].Name, r1[0].Seq))
	pairBody.WriteString(`],"reads2":[`)
	pairBody.WriteString(fmt.Sprintf(`{"name":%q,"seq":%q}`, r2[0].Name, r2[0].Seq))
	pairBody.WriteString(`]}`)
	if w := post(s, "/v1/align/paired?header=0", "application/json", &pairBody); w.Code != http.StatusOK {
		t.Fatalf("paired: status %d: %s", w.Code, w.Body.String())
	}

	m := parseMetrics(t, get(s, "/v1/metrics").Body.String())
	series := make(map[string]bool)
	for _, sm := range m {
		series[sm.Name] = true
	}
	for _, family := range []string{
		"bwaserve_request_seconds",
		"bwaserve_queue_wait_seconds",
		"bwaserve_admission_wait_seconds",
		"bwaserve_ttfb_seconds",
		"bwaserve_stage_task_seconds",
	} {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if !series[family+suffix] {
				t.Errorf("metrics missing %s%s series", family, suffix)
			}
		}
	}

	count := metricValue(t, m, "bwaserve_request_seconds_count", "kind", "single")
	if count != n {
		t.Fatalf("request histogram count = %v, want %d", count, n)
	}
	bs := m.Buckets("bwaserve_request_seconds", "kind", "single")
	if bs == nil || bs.Total != int64(count) {
		t.Fatalf("+Inf bucket of %+v != count %v", bs, count)
	}
	p50, p99 := bs.Quantile(0.50), bs.Quantile(0.99)
	if p99 <= 0 || p99 >= 1e308 {
		t.Fatalf("p99 = %g, want a finite positive bucket bound", p99)
	}
	if p99 < p50 {
		t.Fatalf("p99 %g < p50 %g", p99, p50)
	}

	// Stage histograms saw real kernel tasks: SMEM runs on every batch.
	if smem := m.Buckets("bwaserve_stage_task_seconds", "stage", "SMEM"); smem == nil || smem.Total == 0 {
		t.Fatal("SMEM stage histogram recorded no tasks")
	}
	if qw := m.Buckets("bwaserve_queue_wait_seconds"); qw == nil || qw.Total == 0 {
		t.Fatal("queue-wait histogram recorded no reads")
	}
}

// TestServerTimingHeader checks the per-request span surfaces as a
// Server-Timing header on align responses, committed with the first body
// byte: parse and admit always, ttfb always, cache only when the result
// cache ran the request.
func TestServerTimingHeader(t *testing.T) {
	_, reads, _, _ := setup(t)
	cfg := testConfig()
	cfg.CacheEnabled = true
	s := newTestServer(t, cfg)

	w := post(s, "/v1/align?header=0", "application/x-fastq", fastqBody(reads[:8]))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	st := w.Header().Get("Server-Timing")
	if st == "" {
		t.Fatal("align response has no Server-Timing header")
	}
	for _, phase := range []string{"parse;dur=", "admit;dur=", "cache;dur=", "ttfb;dur="} {
		if !strings.Contains(st, phase) {
			t.Errorf("Server-Timing %q missing %q", st, phase)
		}
	}

	// Non-align routes carry no timing header.
	if got := get(s, "/v1/healthz").Header().Get("Server-Timing"); got != "" {
		t.Fatalf("healthz unexpectedly has Server-Timing %q", got)
	}
}

// TestDebugRequests checks the flag-gated trace ring endpoint: 404 with a
// typed envelope when disabled (the default), and recent/slowest trace
// lists with per-phase timings once enabled.
func TestDebugRequests(t *testing.T) {
	_, reads, _, _ := setup(t)

	t.Run("disabled", func(t *testing.T) {
		s := newTestServer(t, testConfig())
		w := get(s, "/v1/debug/requests")
		if w.Code != http.StatusNotFound {
			t.Fatalf("status %d, want 404", w.Code)
		}
		var env struct {
			Code string `json:"code"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Code != "not_found" {
			t.Fatalf("envelope %s (err %v), want code not_found", w.Body.String(), err)
		}
	})

	t.Run("enabled", func(t *testing.T) {
		cfg := testConfig()
		cfg.DebugRequestTraces = 4
		s := newTestServer(t, cfg)
		for i := 0; i < 6; i++ {
			if w := post(s, "/v1/align?header=0", "application/x-fastq", fastqBody(reads[:5])); w.Code != http.StatusOK {
				t.Fatalf("align %d: status %d", i, w.Code)
			}
		}
		get(s, "/v1/metrics") // must NOT enter the ring

		w := get(s, "/v1/debug/requests")
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		var resp debugRequestsResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Capacity != 4 {
			t.Fatalf("capacity %d, want 4", resp.Capacity)
		}
		if len(resp.Recent) != 4 || len(resp.Slowest) != 4 {
			t.Fatalf("recent %d slowest %d, want 4 each (ring holds last N of 6)", len(resp.Recent), len(resp.Slowest))
		}
		for _, tr := range resp.Recent {
			if tr.Route != "/v1/align" {
				t.Fatalf("non-align route %q leaked into the trace ring", tr.Route)
			}
			if tr.RequestID == "" || tr.Status != http.StatusOK || tr.Reads != 5 || tr.Seconds <= 0 {
				t.Fatalf("incomplete trace %+v", tr)
			}
			names := make(map[string]bool)
			for _, p := range tr.Phases {
				names[p.Name] = true
			}
			for _, want := range []string{"parse", "admit", "align", "ttfb"} {
				if !names[want] {
					t.Fatalf("trace phases %v missing %q", tr.Phases, want)
				}
			}
		}
		for i := 1; i < len(resp.Slowest); i++ {
			if resp.Slowest[i].Seconds > resp.Slowest[i-1].Seconds {
				t.Fatal("slowest list not sorted slowest-first")
			}
		}
	})
}

// TestStructuredAccessLog checks SetLogger produces one JSON event per
// align request with the fields log pipelines key on, and none for probes
// and scrapes.
func TestStructuredAccessLog(t *testing.T) {
	_, reads, _, _ := setup(t)
	s := newTestServer(t, testConfig())
	var buf bytes.Buffer
	s.SetLogger(slog.New(slog.NewJSONHandler(&buf, nil)))

	// Health probes and metric scrapes write no access line.
	for range 5 {
		get(s, "/v1/readyz")
	}
	get(s, "/v1/healthz")
	if w := post(s, "/v1/align?header=0", "application/x-fastq", fastqBody(reads[:3])); w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	get(s, "/v1/healthz")
	get(s, "/v1/metrics")
	s.SetLogger(nil)
	post(s, "/v1/align?header=0", "application/x-fastq", fastqBody(reads[:1])) // after SetLogger(nil): must not log

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d log lines, want 1: %q", len(lines), buf.String())
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("log line is not JSON: %v: %s", err, lines[0])
	}
	if ev["msg"] != "request" || ev["level"] != "INFO" {
		t.Fatalf("unexpected event %v", ev)
	}
	if ev["route"] != "/v1/align" || ev["reads"] != float64(3) || ev["status"] != float64(200) {
		t.Fatalf("bad fields in %v", ev)
	}
	if id, _ := ev["request_id"].(string); id == "" {
		t.Fatalf("missing request_id in %v", ev)
	}
	if d, _ := ev["duration_seconds"].(float64); d <= 0 {
		t.Fatalf("missing duration_seconds in %v", ev)
	}
	if b, _ := ev["bytes_out"].(float64); b <= 0 {
		t.Fatalf("missing bytes_out in %v", ev)
	}
}

// TestMetricsREADMEDocDrift locks README.md's /metrics reference table to
// the live exposition, both directions: every metric family the server
// emits has a documented row, and every documented row is still emitted.
func TestMetricsREADMEDocDrift(t *testing.T) {
	_, reads, r1, r2 := setup(t)
	cfg := testConfig()
	cfg.CacheEnabled = true // cache block emits only when enabled
	s := newTestServer(t, cfg)
	s.SetIndexInfo(IndexInfo{Source: "synthetic-build"}) // index_source emits only when labeled

	// Drive both align routes so every family has meaning (presence does
	// not depend on traffic, but keep the test honest about a live server).
	if w := post(s, "/v1/align?header=0", "application/x-fastq", fastqBody(reads[:5])); w.Code != http.StatusOK {
		t.Fatalf("align: %d", w.Code)
	}
	var pb bytes.Buffer
	fmt.Fprintf(&pb, `{"reads1":[{"name":%q,"seq":%q}],"reads2":[{"name":%q,"seq":%q}]}`,
		r1[0].Name, r1[0].Seq, r2[0].Name, r2[0].Seq)
	if w := post(s, "/v1/align/paired?header=0", "application/json", &pb); w.Code != http.StatusOK {
		t.Fatalf("paired: %d", w.Code)
	}

	live := make(map[string]bool)
	for _, sm := range parseMetrics(t, get(s, "/v1/metrics").Body.String()) {
		live[sm.Family] = true
	}
	documented := readmeMetricFamilies(t)

	for name := range live {
		if !documented[name] {
			t.Errorf("metric %s is served but missing from README.md's /metrics reference table", name)
		}
	}
	for name := range documented {
		if !live[name] {
			t.Errorf("README.md documents %s but /v1/metrics does not serve it", name)
		}
	}
}

// readmeMetricFamilies extracts the metric names documented in README.md's
// /metrics reference table (rows of the form "| `bwaserve_...` | ...").
func readmeMetricFamilies(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	rowRe := regexp.MustCompile("^\\| `(bwaserve_[a-z0-9_]+)[`{]")
	out := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		if m := rowRe.FindStringSubmatch(line); m != nil {
			out[m[1]] = true
		}
	}
	if len(out) == 0 {
		t.Fatal("found no metric rows in README.md — did the table move?")
	}
	return out
}
