package soak

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/pkg/bwaclient"
)

// shortOptions is a soak sized for a unit test: small genome, few
// workers, about two seconds of load.
func shortOptions() Options {
	o := DefaultOptions()
	o.Duration = 1500 * time.Millisecond
	o.Workers = 3
	o.GenomeBP = 30000
	o.ReadLen = 80
	o.Threads = 2
	o.SLOp99 = 30 * time.Second // CI machines are slow; the SLO invariant has its own test path
	return o
}

// TestShortRunClean is the harness's own tier-1 gate: a short in-process
// soak must complete with zero violations and a well-formed report.
func TestShortRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("soak run in -short mode")
	}
	rep, err := Run(context.Background(), shortOptions(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("clean run reported violations: %v", rep.Violations)
	}
	if len(rep.Phases) == 0 {
		t.Fatal("no phases recorded")
	}
	steady := rep.Phases[0]
	if steady.Name != "steady" || steady.Requests == 0 || steady.Reads == 0 {
		t.Fatalf("steady phase = %+v, want traffic in a phase named steady", steady)
	}
	for _, op := range []string{opSingle, opPaired, opSlow, opCancel, opOversize, opMalformed, opHealth, opMetrics} {
		if rep.Ops[op] == nil || rep.Ops[op].Attempts == 0 {
			t.Errorf("op %s never ran", op)
		}
	}
	if got := rep.Ops[opOversize].Rejections[bwaclient.CodeTooLarge]; got == 0 {
		t.Error("oversize op recorded no too_large rejections")
	}
	if got := rep.Ops[opMalformed].Rejections[bwaclient.CodeBadRequest]; got == 0 {
		t.Error("malformed op recorded no bad_request rejections")
	}
	if lat, ok := rep.ServerLatency["single"]; !ok || lat.Count == 0 {
		t.Error("no server-side single-request latency parsed from /v1/metrics")
	}
	if rep.Runtime.Samples != 2 {
		t.Errorf("report counts %d runtime samples, want 2 (baseline and final)", rep.Runtime.Samples)
	}

	// The report round-trips with the schema stamped.
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["schema"] != Schema {
		t.Fatalf("schema = %v, want %s", decoded["schema"], Schema)
	}
}

// TestGatewayShortRunClean runs the same short soak through the gateway
// topology: two in-process replicas behind an in-process bwagate. The
// workload, oracle, and invariants are unchanged — byte-identity through
// the gateway's scatter/merge is exactly what's under test — and the
// server-side latency must now parse from bwagate_* metrics.
func TestGatewayShortRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("soak run in -short mode")
	}
	o := shortOptions()
	o.Topology = "gateway:2"
	rep, err := Run(context.Background(), o, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("clean gateway run reported violations: %v", rep.Violations)
	}
	if len(rep.Phases) == 0 {
		t.Fatal("no phases recorded")
	}
	steady := rep.Phases[0]
	if steady.Name != "gateway-steady" || steady.Requests == 0 {
		t.Fatalf("first phase = %+v, want traffic in a phase named gateway-steady", steady)
	}
	if rep.Config.Topology != "gateway:2" {
		t.Fatalf("report config topology = %q, want gateway:2", rep.Config.Topology)
	}
	if lat, ok := rep.ServerLatency["single"]; !ok || lat.Count == 0 {
		t.Error("no single-request latency parsed from the gateway's /v1/metrics")
	}
	if got := rep.Ops[opOversize].Rejections[bwaclient.CodeTooLarge]; got == 0 {
		t.Error("oversize op recorded no too_large rejections through the gateway")
	}
}

// TestDetectsCorruptTarget points the harness at a stub that answers
// every align request with the same canned SAM: byte-identity must fail
// for the success ops and the must-reject ops must be flagged as
// wrongly accepted — the run ends violated, not errored.
func TestDetectsCorruptTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("soak run in -short mode")
	}
	mux := http.NewServeMux()
	sam := "stub\t4\t*\t0\t0\t*\t*\t0\t0\tA\t!\n"
	mux.HandleFunc("/v1/align", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, sam) })
	mux.HandleFunc("/v1/align/paired", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, sam) })
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "# stub exposition\n")
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	o := shortOptions()
	o.Duration = time.Second
	o.Target = ts.URL
	o.Retries = 0
	rep, err := Run(context.Background(), o, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	var byteID, envelope bool
	for _, v := range rep.Violations {
		byteID = byteID || strings.HasPrefix(v, "byte-identity:")
		envelope = envelope || strings.HasPrefix(v, "error-envelope:")
	}
	if !byteID {
		t.Errorf("corrupt SAM not flagged as a byte-identity violation: %v", rep.Violations)
	}
	if !envelope {
		t.Errorf("accepted must-reject requests not flagged: %v", rep.Violations)
	}
	// A stub without bwaserve's histograms must not fabricate latency.
	if len(rep.ServerLatency) != 0 {
		t.Errorf("ServerLatency = %v from a stub without request histograms", rep.ServerLatency)
	}
}

// newTestRunner builds a runner skeleton sufficient for the
// classification unit tests.
func newTestRunner() *runner {
	r := &runner{
		o:        &Options{},
		ops:      map[string]*opAcc{"x": {rejections: make(map[string]int64)}},
		vioCount: make(map[string]int),
	}
	r.beginPhase("test")
	return r
}

func TestClassifyRejection(t *testing.T) {
	api := func(status int, code string) error {
		return fmt.Errorf("wrapped: %w", &bwaclient.APIError{StatusCode: status, Code: code})
	}
	cases := []struct {
		name       string
		err        error
		wantCode   string
		handled    bool
		violations int
		recordedAs string
	}{
		{"transport error", fmt.Errorf("connection refused"), "", false, 0, ""},
		{"expected code", api(413, bwaclient.CodeTooLarge), bwaclient.CodeTooLarge, true, 0, bwaclient.CodeTooLarge},
		{"overloaded stands in", api(429, bwaclient.CodeOverloaded), bwaclient.CodeTooLarge, true, 0, bwaclient.CodeOverloaded},
		{"draining stands in", api(503, bwaclient.CodeDraining), bwaclient.CodeTooLarge, true, 0, bwaclient.CodeDraining},
		{"wrong code", api(400, bwaclient.CodeBadRequest), bwaclient.CodeTooLarge, true, 1, bwaclient.CodeBadRequest},
		{"untyped envelope", api(503, ""), "", true, 1, "http_503"},
		{"no expectation", api(429, bwaclient.CodeOverloaded), "", true, 0, bwaclient.CodeOverloaded},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newTestRunner()
			acc := r.ops["x"]
			handled := r.classifyRejection("x", acc, r.cur.Load(), c.err, c.wantCode)
			if handled != c.handled {
				t.Fatalf("handled = %v, want %v", handled, c.handled)
			}
			if len(r.vios) != c.violations {
				t.Fatalf("violations = %v, want %d", r.vios, c.violations)
			}
			if c.recordedAs != "" && acc.rejections[c.recordedAs] != 1 {
				t.Fatalf("rejections = %v, want 1 under %q", acc.rejections, c.recordedAs)
			}
		})
	}
}

// TestViolationCap: a persistent fault must not balloon the report.
func TestViolationCap(t *testing.T) {
	r := newTestRunner()
	for i := 0; i < 100; i++ {
		r.violate("byte-identity", "instance %d", i)
	}
	if len(r.vios) != maxViolationsPerKind {
		t.Fatalf("recorded %d violations, want cap %d", len(r.vios), maxViolationsPerKind)
	}
}

// TestQuantileParity locks the harness's exposition-side quantile math to
// obs.Histogram's: parsing the buckets a histogram writes and re-deriving
// quantiles must reproduce Quantile exactly — the SLO check judges the
// server by the same numbers a dashboard would show.
func TestQuantileParity(t *testing.T) {
	h := &obs.Histogram{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		h.Observe(time.Duration(rng.Intn(2_000_000)) * time.Microsecond)
	}
	var buf bytes.Buffer
	if err := h.Write(&buf, "bwaserve_request_seconds", `kind="single"`); err != nil {
		t.Fatal(err)
	}
	d := parseBuckets(buf.String(), "bwaserve_request_seconds", `kind="single"`)
	if d == nil {
		t.Fatal("parseBuckets found nothing in the histogram's own exposition")
	}
	if d.total != h.Count() {
		t.Fatalf("parsed total %d, histogram count %d", d.total, h.Count())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := h.Quantile(q)
		got := d.quantile(q)
		if diff := got - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("q%.2f: exposition-side %v, histogram-side %v", q, got, want)
		}
	}
}

func TestParseBucketsAbsentFamily(t *testing.T) {
	if d := parseBuckets("# nothing here\n", "bwaserve_request_seconds", `kind="single"`); d != nil {
		t.Fatalf("parseBuckets fabricated %+v from empty exposition", d)
	}
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"zero duration", func(o *Options) { o.Duration = 0 }},
		{"zero workers", func(o *Options) { o.Workers = 0 }},
		{"unknown chaos", func(o *Options) { o.Chaos = "netsplit" }},
		{"chaos with target", func(o *Options) { o.Chaos = "kill-restart"; o.Target = "http://x" }},
		{"request cap over budget", func(o *Options) { o.MaxRequestReads = o.MaxInflight + 1 }},
		{"unknown topology", func(o *Options) { o.Topology = "mesh" }},
		{"zero-replica gateway", func(o *Options) { o.Topology = "gateway:0" }},
		{"gateway with target", func(o *Options) { o.Topology = "gateway:2"; o.Target = "http://x" }},
		{"gateway chaos with one replica", func(o *Options) { o.Topology = "gateway:1"; o.Chaos = "kill-restart" }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := DefaultOptions()
			c.mutate(&o)
			if err := o.validate(); err == nil {
				t.Fatal("validate accepted an invalid configuration")
			}
		})
	}
	o := DefaultOptions()
	if err := o.validate(); err != nil {
		t.Fatalf("defaults do not validate: %v", err)
	}
}

// TestFlagsREADMEDocDrift locks README.md's bwasoak flags table to the
// actual Flags registration, the same way the /metrics reference table is
// locked to the exposition.
func TestFlagsREADMEDocDrift(t *testing.T) {
	fs := flag.NewFlagSet("bwasoak", flag.ContinueOnError)
	Flags(fs)
	registered := make(map[string]bool)
	fs.VisitAll(func(f *flag.Flag) { registered[f.Name] = true })

	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	start := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "## Soak & chaos testing") {
			start = i + 1
			break
		}
	}
	if start < 0 {
		t.Fatal("README.md has no 'Soak & chaos testing' section")
	}
	rowRe := regexp.MustCompile("^\\| `-([a-z0-9-]+)` \\|")
	documented := make(map[string]bool)
	for _, l := range lines[start:] {
		if strings.HasPrefix(l, "## ") {
			break
		}
		if m := rowRe.FindStringSubmatch(l); m != nil {
			documented[m[1]] = true
		}
	}
	if len(documented) == 0 {
		t.Fatal("found no flag rows in README.md's bwasoak section — did the table move?")
	}
	for name := range registered {
		if !documented[name] {
			t.Errorf("bwasoak -%s is registered but missing from README.md's flags table", name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("README.md documents bwasoak -%s but Flags does not register it", name)
		}
	}
}
