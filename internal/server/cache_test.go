package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/seq"
	"repro/internal/testutil"
)

// dupReads builds a duplicate-heavy read set: every read of base repeated
// copies times, each copy under its own name (as PCR duplicates arrive),
// interleaved so duplicates are spread across the request rather than
// adjacent.
func dupReads(base []seq.Read, copies int, tag string) []seq.Read {
	out := make([]seq.Read, 0, len(base)*copies)
	for c := 0; c < copies; c++ {
		for i := range base {
			out = append(out, seq.Read{
				Name: fmt.Sprintf("%s-%d-%d", tag, i, c),
				Seq:  base[i].Seq,
				Qual: base[i].Qual,
			})
		}
	}
	return out
}

// TestCacheByteIdenticalConcurrentDuplicates is the cache's correctness
// contract under load: many goroutines fire requests full of duplicated
// reads (duplicates both within a request and across concurrent requests,
// so hits, single-flight joins, and leaders all occur), and every response
// must be byte-identical to an uncached pipeline.Run over that request's
// own reads. Run under -race in CI.
func TestCacheByteIdenticalConcurrentDuplicates(t *testing.T) {
	aln, reads, _, _ := setup(t)
	s := newTestServer(t, testConfig()) // cache on via DefaultServerConfig

	const goroutines = 8
	const requests = 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*requests)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < requests; q++ {
				// All goroutines share the same base sequences (maximal
				// cross-request duplication) but name reads uniquely.
				base := reads[(q*20)%200 : (q*20)%200+20]
				sub := dupReads(base, 5, fmt.Sprintf("g%dq%d", g, q))
				want := pipeline.Run(aln, sub, pipeline.Config{Threads: 1})
				w := post(s, "/align?header=0", "application/x-fastq", fastqBody(sub))
				if w.Code != 200 {
					errs <- fmt.Errorf("g%d q%d: status %d: %s", g, q, w.Code, w.Body.String())
					return
				}
				if !bytes.Equal(w.Body.Bytes(), want.SAM) {
					errs <- fmt.Errorf("g%d q%d: cached SAM differs from pipeline.Run", g, q)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.cache.Stats()
	if st.Hits == 0 {
		t.Error("duplicate-heavy traffic produced no cache hits")
	}
	if st.Misses == 0 {
		t.Error("no cache misses recorded (first copies must lead)")
	}
	t.Logf("cache after concurrent duplicates: hits=%d misses=%d coalesced=%d",
		st.Hits, st.Misses, st.Coalesced)
}

// TestCacheEvictionUnderPressure squeezes many unique sequences through a
// cache a few hundred bytes large: entries must be evicted, the resident
// bytes must stay within capacity, and — above all — responses must stay
// correct while eviction churns.
func TestCacheEvictionUnderPressure(t *testing.T) {
	aln, reads, _, _ := setup(t)
	cfg := testConfig()
	cfg.CacheBytes = 64 << 10 // about three entries in each of the 64 shards
	s := newTestServer(t, cfg)

	for round := 0; round < 3; round++ {
		sub := reads[round*100 : (round+1)*100]
		want := pipeline.Run(aln, sub, pipeline.Config{Threads: 2})
		w := post(s, "/align?header=0", "application/x-fastq", fastqBody(sub))
		if w.Code != 200 {
			t.Fatalf("round %d: status %d", round, w.Code)
		}
		if !bytes.Equal(w.Body.Bytes(), want.SAM) {
			t.Fatalf("round %d: SAM differs under eviction pressure", round)
		}
	}
	st := s.cache.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions after 300 unique reads through a %d-byte cache", cfg.CacheBytes)
	}
	if st.Bytes > st.Capacity {
		t.Fatalf("resident %d bytes exceeds capacity %d", st.Bytes, st.Capacity)
	}
}

// TestCacheSingleFlightWithinRequest pins the within-request path: a
// request's reads are all classified before any is aligned, so the first
// copy of each sequence misses and every later copy is rendered from the
// first copy's regions (coalesced) rather than aligned or looked up —
// whatever the timing.
func TestCacheSingleFlightWithinRequest(t *testing.T) {
	aln, reads, _, _ := setup(t)
	s := newTestServer(t, testConfig())

	const unique, copies = 10, 4
	sub := dupReads(reads[300:300+unique], copies, "sf")
	want := pipeline.Run(aln, sub, pipeline.Config{Threads: 1})
	w := post(s, "/align?header=0", "application/x-fastq", fastqBody(sub))
	if w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}
	if !bytes.Equal(w.Body.Bytes(), want.SAM) {
		t.Fatal("coalesced SAM differs from pipeline.Run")
	}
	st := s.cache.Stats()
	if st.Misses != unique || st.Hits != 0 || st.Coalesced != unique*(copies-1) {
		t.Errorf("hits=%d misses=%d coalesced=%d, want 0, %d, %d",
			st.Hits, st.Misses, st.Coalesced, unique, unique*(copies-1))
	}
}

// TestCacheCancelledDuplicateRealigned cancels request A while its misses
// are queued and request B, carrying the same sequences twice over, is
// queued behind it. Requests do not wait on each other: A's task skips its
// reads, B's task aligns them itself, and B's response must be
// byte-identical to pipeline.Run. Every admitted read must be released.
func TestCacheCancelledDuplicateRealigned(t *testing.T) {
	aln, reads, _, _ := setup(t)
	cfg := testConfig()
	cfg.Threads = 1
	s := newTestServer(t, cfg)
	reqCtx := make(chan context.Context, 2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			reqCtx <- r.Context()
		}
		s.ServeHTTP(w, r)
	}))
	defer ts.Close()
	release := occupyWorkers(t, s)
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		testutil.WaitUntil(t, 10*time.Second, cond, "timeout waiting for %s", what)
	}

	const n = 20
	base := reads[340 : 340+n]
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	reqA, err := http.NewRequestWithContext(ctxA, http.MethodPost,
		ts.URL+"/align?header=0", fastqBody(dupReads(base, 1, "a")))
	if err != nil {
		t.Fatal(err)
	}
	reqA.Header.Set("Content-Type", "application/x-fastq")
	aErr := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(reqA)
		if err == nil {
			resp.Body.Close()
		}
		aErr <- err
	}()
	waitFor("A's misses", func() bool { return s.cache.Stats().Misses == n })
	serverCtxA := <-reqCtx

	b := dupReads(base, 2, "b")
	type result struct {
		code int
		body []byte
		err  error
	}
	bRes := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/align?header=0", "application/x-fastq", fastqBody(b))
		if err != nil {
			bRes <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		bRes <- result{resp.StatusCode, body, err}
	}()
	// B misses on every sequence A has queued but not aligned.
	waitFor("B's misses", func() bool { return s.cache.Stats().Misses == 2*n })

	cancelA()
	if err := <-aErr; err == nil {
		t.Fatal("A's client returned no error after cancellation")
	}
	waitFor("the server to see A's disconnect", func() bool { return serverCtxA.Err() != nil })
	release()

	got := <-bRes
	if got.err != nil || got.code != 200 {
		t.Fatalf("B: status %d, error %v", got.code, got.err)
	}
	want := pipeline.Run(aln, b, pipeline.Config{Threads: 1})
	if !bytes.Equal(got.body, want.SAM) {
		t.Fatal("B's SAM differs from pipeline.Run after A was cancelled")
	}
	if st := s.cache.Stats(); st.Coalesced != n {
		t.Errorf("coalesced = %d, want %d (B's second copies)", st.Coalesced, n)
	}
	waitFor("reads_inflight to return to 0", func() bool {
		return scrapeMetric(t, ts.URL, "bwaserve_reads_inflight") == 0
	})
}

// TestCacheDisabled covers the cache-off path: responses stay correct and
// /metrics reports the cache as disabled without cache counters.
func TestCacheDisabled(t *testing.T) {
	aln, reads, _, _ := setup(t)
	cfg := testConfig()
	cfg.CacheEnabled = false
	s := newTestServer(t, cfg)

	sub := dupReads(reads[:10], 3, "off")
	want := pipeline.Run(aln, sub, pipeline.Config{Threads: 1})
	w := post(s, "/align?header=0", "application/x-fastq", fastqBody(sub))
	if w.Code != 200 || !bytes.Equal(w.Body.Bytes(), want.SAM) {
		t.Fatalf("cache-off response wrong (status %d)", w.Code)
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), "bwaserve_cache_enabled 0") {
		t.Error("/metrics missing bwaserve_cache_enabled 0")
	}
	if strings.Contains(rec.Body.String(), "bwaserve_cache_hits_total") {
		t.Error("/metrics exposes cache counters while disabled")
	}
}

// TestCacheMetricsExposed checks every cache counter appears on /metrics
// and that hits/coalesced move under duplicate traffic.
func TestCacheMetricsExposed(t *testing.T) {
	_, reads, _, _ := setup(t)
	s := newTestServer(t, testConfig())

	sub := dupReads(reads[50:70], 5, "met")
	if w := post(s, "/align?header=0", "application/x-fastq", fastqBody(sub)); w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, field := range []string{
		"bwaserve_cache_enabled 1",
		"bwaserve_cache_hits_total",
		"bwaserve_cache_misses_total",
		"bwaserve_cache_coalesced_total",
		"bwaserve_cache_evictions_total",
		"bwaserve_cache_entries",
		"bwaserve_cache_resident_bytes",
		"bwaserve_cache_capacity_bytes",
	} {
		if !strings.Contains(body, field) {
			t.Errorf("/metrics missing %s", field)
		}
	}
	st := s.cache.Stats()
	if st.Hits+st.Coalesced == 0 {
		t.Error("80 duplicates of 20 sequences produced neither hits nor coalesced reads")
	}
	if got := st.Hits + st.Misses + st.Coalesced; got != int64(len(sub)) {
		t.Errorf("hits %d + misses %d + coalesced %d = %d, want one per read (%d)",
			st.Hits, st.Misses, st.Coalesced, got, len(sub))
	}
	if st.Misses == 0 {
		t.Error("no misses recorded")
	}
}
