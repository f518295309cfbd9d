package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/seq"
)

// BenchmarkAlignDuplication measures served-reads/sec on the /align path
// at 0%, 50%, and 90% read duplication — the PCR/optical-duplicate rates
// real sequencing traffic spans — with the result cache off and on. The
// cache-off rows are the floor (every copy runs the full pipeline); the
// cache-on rows show duplicate copies being served from cached regions.
// Unique sequences are never reused across iterations, so the 0% rows
// measure pure pipeline throughput plus cache bookkeeping overhead.
//
//	go test ./internal/server/ -bench=Duplication -benchtime=10x
func BenchmarkAlignDuplication(b *testing.B) {
	aln, _, _, _ := setup(b)
	const perRequest = 500
	pool := newReadPool(aln.Ref)

	for _, dupPct := range []int{0, 50, 90} {
		for _, cacheOn := range []bool{false, true} {
			name := fmt.Sprintf("dup=%d%%/cache=%v", dupPct, cacheOn)
			b.Run(name, func(b *testing.B) {
				cfg := testConfig()
				cfg.CacheEnabled = cacheOn
				s := newTestServer(b, cfg)
				unique := perRequest * (100 - dupPct) / 100
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					body := dupRequestBody(b, pool, unique, perRequest)
					req := httptest.NewRequest(http.MethodPost, "/align?header=0", body)
					w := httptest.NewRecorder()
					b.StartTimer()
					s.ServeHTTP(w, req)
					if w.Code != http.StatusOK {
						b.Fatalf("status %d: %s", w.Code, w.Body.String())
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(perRequest*b.N)/b.Elapsed().Seconds(), "reads/s")
			})
		}
	}
}

// BenchmarkAlignSmallRequests measures the small-request traffic that
// cross-request batching would target: 8 concurrent in-process clients
// send requests of 1, 4 or 16 reads each, cache off, so every read is
// aligned. It reports served reads/s and the median request latency.
//
//	go test ./internal/server/ -run '^$' -bench=SmallRequests -benchtime=3s
func BenchmarkAlignSmallRequests(b *testing.B) {
	_, reads, _, _ := setup(b)
	const clients = 8
	for _, perRequest := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("reads=%d", perRequest), func(b *testing.B) {
			cfg := testConfig()
			cfg.CacheEnabled = false
			s := newTestServer(b, cfg)
			bodies := make([][]byte, len(reads)/perRequest)
			for i := range bodies {
				bodies[i] = fastqBody(reads[i*perRequest : (i+1)*perRequest]).Bytes()
			}
			lat := make([]time.Duration, b.N)
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := int(next.Add(1)) - 1; i < b.N; i = int(next.Add(1)) - 1 {
						req := httptest.NewRequest(http.MethodPost, "/align?header=0",
							bytes.NewReader(bodies[i%len(bodies)]))
						w := httptest.NewRecorder()
						t0 := time.Now()
						s.ServeHTTP(w, req)
						lat[i] = time.Since(t0)
						if w.Code != http.StatusOK {
							b.Errorf("status %d: %s", w.Code, w.Body.String())
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			slices.Sort(lat)
			b.ReportMetric(float64(perRequest*b.N)/b.Elapsed().Seconds(), "reads/s")
			b.ReportMetric(float64(lat[len(lat)/2].Microseconds())/1e3, "p50_ms")
		})
	}
}

// readPool hands out simulated reads that are unique for the life of the
// benchmark, refilling from the reference with a fresh seed whenever a
// batch is exhausted — so cross-iteration cache hits can't flatter the
// numbers.
type readPool struct {
	ref   *seq.Reference
	reads []seq.Read
	next  int
	seed  int64
}

func newReadPool(ref *seq.Reference) *readPool { return &readPool{ref: ref, seed: 1000} }

func (p *readPool) take(tb testing.TB, n int) []seq.Read {
	for len(p.reads)-p.next < n {
		prof := datasets.D4
		prof.Seed = p.seed
		p.seed++
		more, err := datasets.Simulate(p.ref, prof)
		if err != nil {
			tb.Fatal(err)
		}
		p.reads = append(p.reads[p.next:], more...)
		p.next = 0
	}
	out := p.reads[p.next : p.next+n]
	p.next += n
	return out
}

// dupRequestBody builds one FASTQ request of total reads of which unique
// are fresh sequences and the rest duplicate them round-robin under
// distinct names, duplicates spread across the request.
func dupRequestBody(tb testing.TB, pool *readPool, unique, total int) *bytes.Buffer {
	base := pool.take(tb, unique)
	reads := make([]seq.Read, 0, total)
	reads = append(reads, base...)
	for i := len(reads); i < total; i++ {
		src := base[i%len(base)]
		reads = append(reads, seq.Read{
			Name: fmt.Sprintf("%s.dup%d", src.Name, i),
			Seq:  src.Seq,
			Qual: src.Qual,
		})
	}
	var buf bytes.Buffer
	seq.WriteFastq(&buf, reads)
	return &buf
}
