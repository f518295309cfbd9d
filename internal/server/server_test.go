package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/pipeline"
	"repro/internal/seq"
	"repro/internal/testutil"
)

// Shared fixture: one synthetic reference + aligner + simulated reads,
// built once (index construction dominates test time).
var fixture struct {
	once  sync.Once
	aln   *core.Aligner
	reads []seq.Read
	r1    []seq.Read
	r2    []seq.Read
	err   error
}

func setup(t testing.TB) (*core.Aligner, []seq.Read, []seq.Read, []seq.Read) {
	t.Helper()
	fixture.once.Do(func() {
		ref, err := datasets.Genome(datasets.DefaultGenome("chr1", 60000, 21))
		if err != nil {
			fixture.err = err
			return
		}
		fixture.aln, err = core.NewAligner(ref, core.ModeOptimized, core.DefaultOptions())
		if err != nil {
			fixture.err = err
			return
		}
		fixture.reads, err = datasets.Simulate(ref, datasets.D4.Scaled(0.08)) // 400 reads
		if err != nil {
			fixture.err = err
			return
		}
		pp := datasets.DefaultPairs(datasets.D4.Scaled(0.04)) // 200 pairs
		fixture.r1, fixture.r2, fixture.err = datasets.SimulatePairs(ref, pp)
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.aln, fixture.reads, fixture.r1, fixture.r2
}

func testConfig() core.ServerConfig {
	cfg := core.DefaultServerConfig()
	cfg.Threads = 4
	cfg.BatchSize = 64
	return cfg
}

func newTestServer(t testing.TB, cfg core.ServerConfig) *Server {
	t.Helper()
	aln, _, _, _ := setup(t)
	s, err := New(aln, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func fastqBody(reads []seq.Read) *bytes.Buffer {
	var buf bytes.Buffer
	seq.WriteFastq(&buf, reads)
	return &buf
}

func post(s *Server, path, contentType string, body *bytes.Buffer) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, body)
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func TestSingleEndFASTQByteIdentical(t *testing.T) {
	aln, reads, _, _ := setup(t)
	s := newTestServer(t, testConfig())

	want := pipeline.Run(aln, reads, pipeline.Config{Threads: 4, BatchSize: 64})
	w := post(s, "/align?header=0", "application/x-fastq", fastqBody(reads))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if !bytes.Equal(w.Body.Bytes(), want.SAM) {
		t.Fatal("server SAM differs from pipeline.Run SAM")
	}

	// Default response carries the header.
	w = post(s, "/align", "", fastqBody(reads[:5]))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if !strings.HasPrefix(w.Body.String(), "@SQ\t") {
		t.Fatalf("response missing SAM header: %.60q", w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "text/x-sam" {
		t.Fatalf("content type %q", ct)
	}
}

func TestSingleEndJSONByteIdentical(t *testing.T) {
	aln, reads, _, _ := setup(t)
	s := newTestServer(t, testConfig())

	sub := reads[:50]
	var req singleRequest
	jsonReads := make([]seq.Read, len(sub))
	for i, r := range sub {
		req.Reads = append(req.Reads, jsonRead{Name: r.Name, Seq: string(r.Seq), Qual: string(r.Qual)})
		jsonReads[i] = seq.Read{Name: r.Name, Seq: r.Seq, Qual: r.Qual}
	}
	body, _ := json.Marshal(req)
	want := pipeline.Run(aln, jsonReads, pipeline.Config{Threads: 2})

	w := post(s, "/align?header=0", "application/json", bytes.NewBuffer(body))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if !bytes.Equal(w.Body.Bytes(), want.SAM) {
		t.Fatal("JSON-body SAM differs from pipeline.Run SAM")
	}
}

func TestPairedByteIdentical(t *testing.T) {
	aln, _, r1, r2 := setup(t)
	s := newTestServer(t, testConfig())
	want := pipeline.RunPaired(aln, r1, r2, pipeline.Config{Threads: 4, BatchSize: 64})

	// JSON form.
	var req pairedRequest
	for i := range r1 {
		req.Reads1 = append(req.Reads1, jsonRead{Name: r1[i].Name, Seq: string(r1[i].Seq), Qual: string(r1[i].Qual)})
		req.Reads2 = append(req.Reads2, jsonRead{Name: r2[i].Name, Seq: string(r2[i].Seq), Qual: string(r2[i].Qual)})
	}
	body, _ := json.Marshal(req)
	w := post(s, "/align/paired?header=0", "application/json", bytes.NewBuffer(body))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if !bytes.Equal(w.Body.Bytes(), want.SAM) {
		t.Fatal("paired JSON SAM differs from pipeline.RunPaired SAM")
	}

	// Interleaved FASTQ form.
	inter := make([]seq.Read, 0, 2*len(r1))
	for i := range r1 {
		inter = append(inter, r1[i], r2[i])
	}
	w = post(s, "/align/paired?header=0", "text/plain", fastqBody(inter))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if !bytes.Equal(w.Body.Bytes(), want.SAM) {
		t.Fatal("paired interleaved-FASTQ SAM differs from pipeline.RunPaired SAM")
	}
}

func TestConcurrentRequestsCoalesced(t *testing.T) {
	aln, reads, _, _ := setup(t)
	s := newTestServer(t, testConfig())
	ts := httptest.NewServer(s)
	defer ts.Close()

	// 8 concurrent small requests (50 reads each, batch size 64): every
	// caller gets exactly its own records back even though the requests'
	// tasks interleave on the shared pool.
	const parts = 8
	chunk := len(reads) / parts
	var wg sync.WaitGroup
	errs := make(chan error, parts)
	for p := 0; p < parts; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := reads[p*chunk : (p+1)*chunk]
			want := pipeline.Run(aln, sub, pipeline.Config{Threads: 1})
			resp, err := http.Post(ts.URL+"/align?header=0", "", fastqBody(sub))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var got bytes.Buffer
			got.ReadFrom(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d", p, resp.StatusCode)
				return
			}
			if !bytes.Equal(got.Bytes(), want.SAM) {
				errs <- fmt.Errorf("request %d: SAM differs from its own pipeline.Run", p)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Every request has misses, and each request's misses go out as their
	// own task(s): no request shares a task with another.
	if got := s.met.batches.Load(); got < parts {
		t.Fatalf("bwaserve_batches_total = %d after %d requests, want >= %d", got, parts, parts)
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, testConfig())

	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/align", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /align: status %d", w.Code)
	}
	if w := post(s, "/align", "", bytes.NewBufferString("not fastq")); w.Code != http.StatusBadRequest {
		t.Fatalf("garbage FASTQ: status %d", w.Code)
	}
	if w := post(s, "/align", "application/json", bytes.NewBufferString(`{"reads":[]}`)); w.Code != http.StatusBadRequest {
		t.Fatalf("empty JSON read set: status %d", w.Code)
	}
	if w := post(s, "/align", "application/json", bytes.NewBufferString(`{"reads":[{"name":"x","seq":""}]}`)); w.Code != http.StatusBadRequest {
		t.Fatalf("empty sequence: status %d", w.Code)
	}
	if w := post(s, "/align", "application/json", bytes.NewBufferString(`{"reads":[{"name":"","seq":"ACGT"}]}`)); w.Code != http.StatusBadRequest {
		t.Fatalf("empty name: status %d", w.Code)
	}
	// SAM-injection attempts through JSON fields must be rejected, not
	// echoed into the response.
	inject := `{"reads":[{"name":"r1\tXX:Z:evil\n@SQ\tSN:fake\tLN:1","seq":"ACGT"}]}`
	if w := post(s, "/align", "application/json", bytes.NewBufferString(inject)); w.Code != http.StatusBadRequest {
		t.Fatalf("tab/newline in name: status %d", w.Code)
	}
	if w := post(s, "/align", "application/json", bytes.NewBufferString(`{"reads":[{"name":"r1","seq":"AC\tGT"}]}`)); w.Code != http.StatusBadRequest {
		t.Fatalf("tab in seq: status %d", w.Code)
	}
	if w := post(s, "/align", "application/json", bytes.NewBufferString(`{"reads":[{"name":"r1","seq":"ACGT","qual":"II\nI"}]}`)); w.Code != http.StatusBadRequest {
		t.Fatalf("newline in qual: status %d", w.Code)
	}
	// The FASTQ path enforces the same policy: empty sequences and
	// embedded tabs are rejected, not aligned into malformed SAM.
	if w := post(s, "/align", "", bytes.NewBufferString("@r\n\n+\n\n")); w.Code != http.StatusBadRequest {
		t.Fatalf("empty FASTQ sequence: status %d", w.Code)
	}
	if w := post(s, "/align", "", bytes.NewBufferString("@r\nAC\tGT\n+\nIIIIII\n")); w.Code != http.StatusBadRequest {
		t.Fatalf("tab in FASTQ sequence: status %d", w.Code)
	}
	// Odd interleaved FASTQ for paired.
	_, reads, _, _ := setup(t)
	if w := post(s, "/align/paired", "", fastqBody(reads[:3])); w.Code != http.StatusBadRequest {
		t.Fatalf("odd interleave: status %d", w.Code)
	}
}

func TestOversizeRequestRejected(t *testing.T) {
	cfg := testConfig()
	cfg.MaxReadsPerRequest = 10
	cfg.MaxInFlightReads = 100
	cfg.MaxReadLen = 200
	s := newTestServer(t, cfg)
	_, reads, _, _ := setup(t)
	if w := post(s, "/align", "", fastqBody(reads[:11])); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize request: status %d", w.Code)
	}
	// A single read over the length cap is shed as 413, not aligned.
	long := seq.Read{Name: "long", Seq: bytes.Repeat([]byte("ACGT"), 100)}
	if w := post(s, "/align", "", fastqBody([]seq.Read{long})); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-length read: status %d", w.Code)
	}
}

func TestQueueFullReturns429(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInFlightReads = 32
	s := newTestServer(t, cfg)
	_, reads, _, _ := setup(t)

	// Deterministic: occupy the whole budget, then any request must shed.
	if err := s.adm.TryAcquire(32); err != nil {
		t.Fatal(err)
	}
	w := post(s, "/align", "", fastqBody(reads[:1]))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, body %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	s.adm.Release(32)

	// After the budget frees, the same request succeeds.
	if w := post(s, "/align", "", fastqBody(reads[:1])); w.Code != http.StatusOK {
		t.Fatalf("after release: status %d", w.Code)
	}

	// End-to-end under live load: saturate with a big request on a slow
	// pool and probe while it runs. The loop is bounded by the big
	// request's completion so a fast machine cannot hang it; the
	// deterministic budget check above is the hard 429 guarantee.
	big := make([]seq.Read, 0, 10*len(reads))
	for i := 0; i < 10; i++ {
		big = append(big, reads...)
	}
	cfg2 := testConfig()
	cfg2.Threads = 1
	cfg2.MaxInFlightReads = len(big)
	s2 := newTestServer(t, cfg2)
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- post(s2, "/align?header=0", "", fastqBody(big)) }()
	saw429 := false
probe:
	for {
		select {
		case res := <-done:
			if res.Code != http.StatusOK {
				t.Fatalf("saturating request failed: %d", res.Code)
			}
			break probe
		default:
			if s2.adm.InFlight() > 0 {
				if w := post(s2, "/align", "", fastqBody(reads[:1])); w.Code == http.StatusTooManyRequests {
					saw429 = true
				}
			}
			time.Sleep(time.Millisecond)
		}
	}
	if !saw429 {
		t.Log("big request finished before a probe landed; live shedding not observed this run")
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	aln, reads, _, _ := setup(t)
	cfg := testConfig()
	cfg.Threads = 2
	goroutines := testutil.Goroutines()
	s, err := New(aln, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 5x the fixture reads: wide enough to still be in flight when
	// Shutdown fires on fast machines.
	big := make([]seq.Read, 0, 5*len(reads))
	for i := 0; i < 5; i++ {
		big = append(big, reads...)
	}
	want := pipeline.Run(aln, big, pipeline.Config{Threads: 2})

	resCh := make(chan *httptest.ResponseRecorder, 1)
	go func() { resCh <- post(s, "/align?header=0", "", fastqBody(big)) }()
	// Bounded wait: if the request somehow finishes first, Shutdown still
	// runs and every assertion below still holds.
	testutil.Eventually(10*time.Second, func() bool { return s.adm.InFlight() > 0 })

	// Shutdown must block until the in-flight request completes...
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	w := <-resCh
	if w.Code != http.StatusOK {
		t.Fatalf("in-flight request during shutdown: status %d", w.Code)
	}
	if !bytes.Equal(w.Body.Bytes(), want.SAM) {
		t.Fatal("drained request returned wrong SAM")
	}

	// ...and reject everything afterwards.
	if w := post(s, "/align", "", fastqBody(reads[:1])); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown request: status %d", w.Code)
	}
	// healthz is pure liveness: still 200 mid-drain, body says so.
	hw := httptest.NewRecorder()
	s.ServeHTTP(hw, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if hw.Code != http.StatusOK || !strings.Contains(hw.Body.String(), "draining") {
		t.Fatalf("healthz after shutdown: %d %s", hw.Code, hw.Body.String())
	}
	// readyz is the drain signal load balancers key on: 503 from now on.
	rw := httptest.NewRecorder()
	s.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/v1/readyz", nil))
	if rw.Code != http.StatusServiceUnavailable || !strings.Contains(rw.Body.String(), "draining") {
		t.Fatalf("readyz after shutdown: %d %s", rw.Code, rw.Body.String())
	}
	// Idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Shutdown tore down the scheduler workers: nothing this server started
	// may outlive it.
	testutil.CheckGoroutines(t, goroutines, 0)
}

// TestShutdownCompletesQueuedRequest: Shutdown completes an admitted
// request that is queued behind busy workers — new work is refused while
// it waits, and the queued request still gets its full, correct SAM.
func TestShutdownCompletesQueuedRequest(t *testing.T) {
	aln, reads, _, _ := setup(t)
	goroutines := testutil.Goroutines()
	s, err := New(aln, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := pipeline.Run(aln, reads[:10], pipeline.Config{Threads: 1})

	release := occupyWorkers(t, s)
	resCh := make(chan *httptest.ResponseRecorder, 1)
	go func() { resCh <- post(s, "/align?header=0", "", fastqBody(reads[:10])) }()
	testutil.WaitUntil(t, 10*time.Second, func() bool { return s.adm.InFlight() == 10 },
		"request never admitted")

	shutErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutErr <- s.Shutdown(ctx)
	}()
	testutil.WaitUntil(t, 10*time.Second, s.draining, "Shutdown never started draining")
	if w := post(s, "/align", "", fastqBody(reads[:1])); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d", w.Code)
	}
	select {
	case err := <-shutErr:
		t.Fatalf("Shutdown returned %v while an admitted request was still queued", err)
	default:
	}

	release()
	if err := <-shutErr; err != nil {
		t.Fatal(err)
	}
	w := <-resCh
	if w.Code != http.StatusOK {
		t.Fatalf("queued request: status %d", w.Code)
	}
	if !bytes.Equal(w.Body.Bytes(), want.SAM) {
		t.Fatal("queued request returned wrong SAM")
	}
	testutil.CheckGoroutines(t, goroutines, 0)
}

// occupyWorkers parks every worker of s on a task that blocks until the
// returned release is called, so work submitted meanwhile queues behind
// them. Release is idempotent and also runs at test cleanup (before the
// server's own Close cleanup, which would otherwise wait on the workers).
func occupyWorkers(t testing.TB, s *Server) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	var started sync.WaitGroup
	started.Add(s.sched.Threads())
	for i := 0; i < s.sched.Threads(); i++ {
		s.sched.Go(func(*core.Workspace) {
			started.Done()
			<-gate
		})
	}
	started.Wait()
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return release
}
