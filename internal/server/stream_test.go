package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/seq"
	"repro/internal/testutil"
)

// TestStreamedFirstByteBeforeCompletion is the streaming acceptance check:
// a large request's first response bytes must arrive while the request is
// still holding admission budget (alignment not finished), and the full
// streamed body must be byte-identical to the buffered pipeline.Run SAM.
func TestStreamedFirstByteBeforeCompletion(t *testing.T) {
	aln, reads, _, _ := setup(t)
	cfg := testConfig()
	cfg.Threads = 1 // serialize batches so the tail is still queued
	cfg.BatchSize = 32
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s)
	defer ts.Close()

	big := make([]seq.Read, 0, 10*len(reads)) // 4000 reads -> 125 batches
	for i := 0; i < 10; i++ {
		big = append(big, reads...)
	}
	want := pipeline.Run(aln, big, pipeline.Config{Threads: 1, BatchSize: 32})

	resp, err := http.Post(ts.URL+"/align?header=0", "", fastqBody(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadByte() // blocks until the first flushed chunk lands
	if err != nil {
		t.Fatal(err)
	}
	if inflight := s.adm.InFlight(); inflight == 0 {
		t.Fatal("first response byte arrived only after the request released its admission budget")
	}
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]byte{first}, rest...)
	if !bytes.Equal(got, want.SAM) {
		t.Fatal("streamed SAM differs from buffered pipeline.Run SAM")
	}
}

// scrape fetches base's /v1/metrics and parses it with the obs reader.
func scrape(t testing.TB, base string) obs.Metrics {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseMetrics(t, string(body))
}

// TestCancelledRequestReleasesBudget covers the cancellation path end to
// end: a request whose tasks are queued behind a busy worker is cancelled
// by its client; its reads must be dropped without ever being aligned and
// its admission budget must free — observed via /metrics, as a real
// operator would — and the cancellation is logged exactly once.
func TestCancelledRequestReleasesBudget(t *testing.T) {
	cfg := testConfig()
	cfg.Threads = 1
	s := newTestServer(t, cfg)
	var logBuf testutil.SyncBuffer
	s.SetLogger(slog.New(slog.NewJSONHandler(&logBuf, nil)))
	reqCtx := make(chan context.Context, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			reqCtx <- r.Context()
		}
		s.ServeHTTP(w, r)
	}))
	defer ts.Close()
	_, reads, _, _ := setup(t)
	n := 40
	release := occupyWorkers(t, s)
	smem0 := s.sched.Clock().T[counters.StageSMEM]

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/align?header=0", fastqBody(reads[:n]))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()

	// Wait until the request is admitted and its tasks are queued.
	testutil.WaitUntil(t, 10*time.Second, func() bool { return s.adm.InFlight() == n },
		"request never admitted")
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("client Do returned nil error after cancellation")
	}
	// Free the worker only once the server has seen the disconnect.
	select {
	case <-(<-reqCtx).Done():
	case <-time.After(10 * time.Second):
		t.Fatal("server never observed the client disconnect")
	}
	release()

	// The admission budget must free promptly — this is what lets the next
	// request in instead of leaking capacity to a dead client.
	testutil.WaitUntil(t, 10*time.Second, func() bool { return s.adm.InFlight() == 0 },
		"admission budget not released")
	m := scrape(t, ts.URL)
	if got := metricValue(t, m, "bwaserve_reads_dropped_total"); got != float64(n) {
		t.Fatalf("reads_dropped_total = %v, want %d", got, n)
	}
	if got := metricValue(t, m, "bwaserve_requests_cancelled_total"); got != 1 {
		t.Fatalf("requests_cancelled_total = %v, want 1", got)
	}
	// The queued reads were dropped before any alignment ran.
	if got := s.sched.Clock().T[counters.StageSMEM]; got != smem0 {
		t.Fatalf("SMEM clock moved by %v for a request cancelled while queued", got-smem0)
	}
	const event = `"msg":"request cancelled"`
	testutil.WaitUntil(t, 10*time.Second, func() bool { return strings.Contains(logBuf.String(), event) },
		"cancellation never logged")
	if n := strings.Count(logBuf.String(), event); n != 1 {
		t.Fatalf("cancellation logged %d times, want 1:\n%s", n, logBuf.String())
	}
}

// TestMidStreamDeadlineAbortsConnection: once a response has started
// streaming, a deadline that truncates it must abort the connection —
// a chunked response that simply ends would read as a complete SAM
// document at the client. Three legitimate outcomes: 504 envelope
// (deadline before the first byte), every record delivered (fast
// machine), or a transport error on read. A clean EOF with records
// missing is the bug.
func TestMidStreamDeadlineAbortsConnection(t *testing.T) {
	cfg := testConfig()
	cfg.Threads = 1
	cfg.BatchSize = 8
	cfg.RequestTimeout = 80 * time.Millisecond
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s)
	defer ts.Close()
	_, reads, _, _ := setup(t)

	big := make([]seq.Read, 0, 20*len(reads))
	for i := 0; i < 20; i++ {
		big = append(big, reads...)
	}
	resp, err := http.Post(ts.URL+"/align?header=0", "text/plain", fastqBody(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGatewayTimeout {
		return // deadline fired before the first byte: envelope path
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body, readErr := io.ReadAll(resp.Body)
	records := bytes.Count(body, []byte{'\n'})
	if records < len(big) && readErr == nil {
		t.Fatalf("truncated stream (%d/%d records) ended as a clean EOF", records, len(big))
	}
}

// TestRequestTimeoutCancelsAlignment exercises the server-imposed deadline:
// a request queued behind a busy worker past RequestTimeout is abandoned
// and reported as 504 (nothing had been written yet).
func TestRequestTimeoutCancelsAlignment(t *testing.T) {
	cfg := testConfig()
	cfg.Threads = 1
	cfg.RequestTimeout = 20 * time.Millisecond
	s := newTestServer(t, cfg)
	_, reads, _, _ := setup(t)
	release := occupyWorkers(t, s)

	resCh := make(chan *httptest.ResponseRecorder, 1)
	go func() { resCh <- post(s, "/align?header=0", "", fastqBody(reads[:5])) }()
	testutil.WaitUntil(t, 10*time.Second, func() bool { return s.adm.InFlight() == 5 },
		"request never admitted")
	// Hold the worker well past the deadline, which is armed right after
	// admission.
	time.Sleep(10 * cfg.RequestTimeout)
	release()
	w := <-resCh
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", w.Code, w.Body.String())
	}
	if got := s.met.readsDropped.Load(); got != 5 {
		t.Fatalf("readsDropped = %d, want 5", got)
	}
	if got := s.adm.InFlight(); got != 0 {
		t.Fatalf("inflight = %d after deadline", got)
	}
}

// TestRequestTimeoutPairedCountsDroppedReads: paired-end cancellation must
// meter its abandoned work in reads_dropped too (pairs count 2), even
// though paired requests bypass the result cache.
func TestRequestTimeoutPairedCountsDroppedReads(t *testing.T) {
	cfg := testConfig()
	cfg.Threads = 1 // phase 1 takes far longer than the deadline
	cfg.RequestTimeout = 20 * time.Millisecond
	s := newTestServer(t, cfg)
	_, _, r1, r2 := setup(t)

	inter := make([]seq.Read, 0, 20*2*len(r1)) // 4000 pairs on one worker
	for rep := 0; rep < 20; rep++ {
		for i := range r1 {
			inter = append(inter, r1[i], r2[i])
		}
	}
	w := post(s, "/align/paired?header=0", "", fastqBody(inter))
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %.80s", w.Code, w.Body.String())
	}
	if got := s.met.readsDropped.Load(); got <= 0 {
		t.Fatalf("reads_dropped = %d after a cancelled paired request", got)
	}
	if got := s.met.requestsCancelled.Load(); got != 1 {
		t.Fatalf("requests_cancelled = %d, want 1", got)
	}
	if got := s.adm.InFlight(); got != 0 {
		t.Fatalf("inflight = %d after deadline", got)
	}
}

// TestPairedClientDisconnectReleasesBudget is the paired-end twin of
// TestCancelledRequestReleasesBudget: a client that disconnects while its
// pairs are mid-alignment must have its admission budget released and its
// abandonment metered, and the capacity it held must be immediately
// usable by the next request. Paired requests bypass the result cache, so
// the release path under test is the handler's own deferred Release — a
// leak here would not show up in any single-end test.
func TestPairedClientDisconnectReleasesBudget(t *testing.T) {
	cfg := testConfig()
	cfg.Threads = 1 // phase 1 on one worker: the request outlives the cancel
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s)
	defer ts.Close()
	_, _, r1, r2 := setup(t)

	inter := make([]seq.Read, 0, 20*2*len(r1)) // 4000 pairs on one worker
	for rep := 0; rep < 20; rep++ {
		for i := range r1 {
			inter = append(inter, r1[i], r2[i])
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/align/paired?header=0", fastqBody(inter))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errCh <- err
	}()

	testutil.WaitUntil(t, 10*time.Second, func() bool { return s.adm.InFlight() == len(inter) },
		"paired request never admitted")
	cancel()
	<-errCh // transport error or truncated read; either way the client is gone

	testutil.WaitUntil(t, 10*time.Second, func() bool { return s.adm.InFlight() == 0 },
		"paired admission budget not released after client disconnect")
	if got := s.met.requestsCancelled.Load(); got != 1 {
		t.Fatalf("requests_cancelled = %d, want 1", got)
	}
	dropped := s.met.readsDropped.Load()
	if dropped <= 0 || dropped%2 != 0 {
		t.Fatalf("reads_dropped = %d, want a positive even count (pairs count 2)", dropped)
	}
	// The freed budget must actually admit new work: a follow-up pair
	// aligns end to end.
	pair := []seq.Read{r1[0], r2[0]}
	if w := post(s, "/align/paired?header=0", "", fastqBody(pair)); w.Code != http.StatusOK {
		t.Fatalf("follow-up paired request after disconnect: status %d, body %.120s", w.Code, w.Body.String())
	}
}

// countingBody counts how many request-body bytes the server consumed.
type countingBody struct {
	r io.Reader
	n int
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestStreamingDecodeStopsAtCap: the (MaxReadsPerRequest+1)-th read must be
// rejected mid-decode, without reading the rest of the body.
func TestStreamingDecodeStopsAtCap(t *testing.T) {
	cfg := testConfig()
	cfg.MaxReadsPerRequest = 8
	cfg.MaxInFlightReads = 100
	s := newTestServer(t, cfg)
	_, reads, _, _ := setup(t)

	// FASTQ: 8 allowed reads followed by a long tail, total below the body
	// byte limit so only the read-count cap can reject it.
	var buf bytes.Buffer
	for len(buf.Bytes()) < 700*1024 {
		seq.WriteFastq(&buf, reads[:50])
	}
	total := buf.Len()
	if limit := requestBodyLimit(s.cfg.MaxReadsPerRequest, s.cfg.MaxReadLen); int64(total) >= limit {
		t.Fatalf("test body %d exceeds the byte limit %d; the cap path would not be exercised", total, limit)
	}
	body := &countingBody{r: bytes.NewReader(buf.Bytes())}
	req := httptest.NewRequest(http.MethodPost, "/align", body)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413; body %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "more than 8 reads") {
		t.Fatalf("unexpected rejection body: %s", w.Body.String())
	}
	// The decoder may read ahead by its buffer, but must not drain the body.
	if body.n > total/2 {
		t.Fatalf("server consumed %d of %d body bytes before rejecting at the cap", body.n, total)
	}

	// JSON path: same cap, enforced during the array decode.
	var jb bytes.Buffer
	jb.WriteString(`{"reads": [`)
	for i := 0; i < 1000; i++ {
		if i > 0 {
			jb.WriteByte(',')
		}
		fmt.Fprintf(&jb, `{"name": "r%d", "seq": "ACGTACGT"}`, i)
	}
	jb.WriteString(`]}`)
	jbody := &countingBody{r: bytes.NewReader(jb.Bytes())}
	req = httptest.NewRequest(http.MethodPost, "/align", jbody)
	req.Header.Set("Content-Type", "application/json")
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("JSON cap: status %d, want 413", w.Code)
	}
	if jbody.n > jb.Len()/2 {
		t.Fatalf("JSON: server consumed %d of %d bytes before rejecting", jbody.n, jb.Len())
	}
}

// TestPairNameValidation: interleaved and JSON pairs whose names disagree
// (after /1, /2 suffix stripping) are rejected instead of silently paired.
func TestPairNameValidation(t *testing.T) {
	s := newTestServer(t, testConfig())
	_, reads, _, _ := setup(t)

	named := func(name string, src seq.Read) seq.Read {
		return seq.Read{Name: name, Seq: src.Seq, Qual: src.Qual}
	}

	// FASTQ, matching /1,/2 suffixes: accepted.
	ok := []seq.Read{named("p0/1", reads[0]), named("p0/2", reads[1])}
	if w := post(s, "/align/paired?header=0", "", fastqBody(ok)); w.Code != http.StatusOK {
		t.Fatalf("matching suffixed pair: status %d, body %s", w.Code, w.Body.String())
	}
	// FASTQ, mismatched names: rejected.
	bad := []seq.Read{named("p0/1", reads[0]), named("p1/2", reads[1])}
	if w := post(s, "/align/paired", "", fastqBody(bad)); w.Code != http.StatusBadRequest {
		t.Fatalf("mismatched interleaved pair: status %d", w.Code)
	}
	// Misordered interleave (1,2 swapped with the next pair) is caught too.
	misordered := []seq.Read{
		named("a/1", reads[0]), named("b/2", reads[1]),
		named("b/1", reads[2]), named("a/2", reads[3]),
	}
	if w := post(s, "/align/paired", "", fastqBody(misordered)); w.Code != http.StatusBadRequest {
		t.Fatalf("misordered interleave: status %d", w.Code)
	}

	// JSON path: mismatch rejected, match accepted.
	jsonPair := func(n1, n2 string) *bytes.Buffer {
		return bytes.NewBufferString(fmt.Sprintf(
			`{"reads1": [{"name": %q, "seq": "%s"}], "reads2": [{"name": %q, "seq": "%s"}]}`,
			n1, reads[0].Seq, n2, reads[1].Seq))
	}
	if w := post(s, "/align/paired", "application/json", jsonPair("x/1", "y/2")); w.Code != http.StatusBadRequest {
		t.Fatalf("mismatched JSON pair: status %d", w.Code)
	}
	if w := post(s, "/align/paired?header=0", "application/json", jsonPair("x/1", "x/2")); w.Code != http.StatusOK {
		t.Fatalf("matching JSON pair: status %d, body %s", w.Code, w.Body.String())
	}
}

// TestStreamedResponseCarriesHeaderBytes: samBytes must count everything
// written, header included (the old writeSAM excluded the header).
func TestStreamedResponseCarriesHeaderBytes(t *testing.T) {
	s := newTestServer(t, testConfig())
	_, reads, _, _ := setup(t)
	before := s.met.SAMBytes.Load()
	w := post(s, "/align", "", fastqBody(reads[:3]))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	wrote := s.met.SAMBytes.Load() - before
	if wrote != int64(w.Body.Len()) {
		t.Fatalf("samBytes grew %d for a %d-byte response (header must be counted)", wrote, w.Body.Len())
	}
	if !strings.HasPrefix(w.Body.String(), "@SQ\t") {
		t.Fatalf("response missing header: %.40q", w.Body.String())
	}
}
