package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ordered"
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
	cfg.CacheBytes = 2048 // a handful of entries across 2 shards
	cfg.CacheShards = 2
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

// TestCacheSingleFlightWithinRequest pins the single-flight path: a
// request's reads are all classified before any leader is submitted, so
// later copies of a sequence must join the first copy's flight (coalesced)
// rather than lead or hit — whatever the timing.
func TestCacheSingleFlightWithinRequest(t *testing.T) {
	aln, reads, _, _ := setup(t)
	s := newTestServer(t, testConfig())

	sub := dupReads(reads[300:310], 4, "sf")
	want := pipeline.Run(aln, sub, pipeline.Config{Threads: 1})
	w := post(s, "/align?header=0", "application/x-fastq", fastqBody(sub))
	if w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}
	if !bytes.Equal(w.Body.Bytes(), want.SAM) {
		t.Fatal("single-flighted SAM differs from pipeline.Run")
	}
	st := s.cache.Stats()
	if st.Coalesced == 0 {
		t.Errorf("no single-flight joins (hits=%d misses=%d coalesced=%d)",
			st.Hits, st.Misses, st.Coalesced)
	}
	if st.Misses != 10 {
		t.Errorf("misses = %d, want 10 (one leader per unique sequence)", st.Misses)
	}
}

// TestCacheLeaderAbortRetries cancels a leader request while a second
// request's duplicate is parked on its flight: the waiter must retry,
// become the new leader, and complete correctly — one caller's disconnect
// must never lose another caller's read. The leader's task is held behind
// a busy worker until its request is cancelled.
func TestCacheLeaderAbortRetries(t *testing.T) {
	aln, reads, _, _ := setup(t)
	cfg := testConfig()
	cfg.Threads = 1
	s := newTestServer(t, cfg)
	release := occupyWorkers(t, s)

	one := []seq.Read{{Name: "victim", Seq: reads[0].Seq, Qual: reads[0].Qual}}
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	aErr := make(chan error, 1)
	stA := ordered.New(httptest.NewRecorder(), 1, false)
	go func() { aErr <- s.alignCached(ctxA, one, stA, nil) }()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		testutil.WaitUntil(t, 2*time.Second, cond, "timeout waiting for %s", what)
	}
	waitFor("A to lead", func() bool { return s.cache.Stats().Misses == 1 })

	// B: same sequence, different name, its own (live) context.
	two := []seq.Read{{Name: "survivor", Seq: reads[0].Seq, Qual: reads[0].Qual}}
	recB := httptest.NewRecorder()
	stB := ordered.New(recB, 1, false)
	bErr := make(chan error, 1)
	go func() { bErr <- s.alignCached(context.Background(), two, stB, nil) }()
	waitFor("B to join A's flight", func() bool { return s.cache.Stats().Coalesced == 1 })

	// Cancel A, then free the worker: A's task finds its request cancelled
	// and drops the leader unaligned, aborting the flight; B must retry and
	// become the new leader (a second miss), and its task then runs.
	cancelA()
	release()
	if err := <-aErr; err != context.Canceled {
		t.Fatalf("A returned %v, want context.Canceled", err)
	}
	stA.CloseAndWait()
	waitFor("B to lead after abort", func() bool { return s.cache.Stats().Misses == 2 })
	if err := <-bErr; err != nil {
		t.Fatalf("B returned %v", err)
	}
	stB.CloseAndWait()

	want := pipeline.Run(aln, two, pipeline.Config{Threads: 1})
	if !bytes.Equal(recB.Body.Bytes(), want.SAM) {
		t.Fatal("B's SAM differs after leader abort and retry")
	}
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
		t.Error("80 duplicates of 20 sequences produced neither hits nor joins")
	}
	if st.Misses == 0 {
		t.Error("no misses recorded")
	}
}
