// Serverdemo exercises the alignment service end to end through the
// public SDK: it starts an in-process server (pkg/bwamem.NewServer) over a
// synthetic genome and drives it with the Go client (pkg/bwaclient) over
// real HTTP — concurrent single-end requests, a paired-end request, the
// response stream delivering its first records while the rest of the
// request is still aligning, a typed API error with its request ID, a
// client cancellation freeing its admission budget, duplicate-heavy
// traffic (PCR-duplicate style) served from the result cache, and finally
// the server's own /v1/metrics view.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/pkg/bwaclient"
	"repro/pkg/bwamem"
)

// clientReads converts SDK reads to client reads (field-identical types).
func clientReads(reads []bwamem.Read) []bwaclient.Read {
	out := make([]bwaclient.Read, len(reads))
	for i, r := range reads {
		out[i] = bwaclient.Read(r)
	}
	return out
}

func main() {
	// 1. Reference + resident index + server, as bwaserve does at startup.
	idx, err := bwamem.Synthetic(120_000, 7)
	if err != nil {
		log.Fatal(err)
	}
	aln, err := bwamem.New(idx)
	if err != nil {
		log.Fatal(err)
	}
	cfg := bwamem.DefaultServerConfig()
	cfg.Threads = 4
	cfg.BatchSize = 128
	srv, err := bwamem.NewServer(aln, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	if err := srv.SetLogOutput(os.Stdout, "text"); err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("server listening on", base, "(API under /v1)")

	c, err := bwaclient.New(base)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Concurrent single-end requests. They share the server's worker
	//    pool; each caller gets exactly its own records.
	reads, err := idx.SimulateReads(200, 101, 104)
	if err != nil {
		log.Fatal(err)
	}
	var wg sync.WaitGroup
	for part := 0; part < 4; part++ {
		part := part
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := clientReads(reads[part*50 : (part+1)*50])
			sam, err := c.AlignSAM(context.Background(), sub)
			if err != nil {
				log.Fatal(err)
			}
			lines := strings.Split(strings.TrimSuffix(string(sam), "\n"), "\n")
			fmt.Printf("single-end request %d: %d -> %d SAM records (first: %.60s...)\n",
				part, len(sub), len(lines), lines[0])
		}()
	}
	wg.Wait()

	// 3. One paired-end request.
	r1, r2, err := idx.SimulatePairs(50, 101, 9)
	if err != nil {
		log.Fatal(err)
	}
	psam, err := c.AlignPairedSAM(context.Background(), clientReads(r1), clientReads(r2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("paired-end request: %d pairs -> %d SAM records\n",
		len(r1), strings.Count(string(psam), "\n"))

	// 4. Response streaming: one big request consumed record by record.
	//    The first records arrive while most of the request is still in
	//    the queue — the server does not buffer the whole response.
	big := make([]bwaclient.Read, 0, 20*len(reads))
	for i := 0; i < 20; i++ {
		big = append(big, clientReads(reads)...)
	}
	t0 := time.Now()
	st, err := c.Align(context.Background(), big)
	if err != nil {
		log.Fatal(err)
	}
	var ttfb time.Duration
	records := 0
	for st.Next() {
		if records == 0 {
			ttfb = time.Since(t0)
		}
		records++
	}
	if err := st.Err(); err != nil {
		log.Fatal(err)
	}
	st.Close()
	fmt.Printf("streaming: %d reads (request %s) -> first record after %v, all %d records after %v\n",
		len(big), st.RequestID(), ttfb.Round(time.Microsecond), records, time.Since(t0).Round(time.Microsecond))

	// 5. Typed errors: an invalid read is rejected with a machine-readable
	//    code and the request ID to quote at the server's logs.
	_, err = c.Align(context.Background(), []bwaclient.Read{{Name: "bad", Seq: []byte("AC GT")}})
	var ae *bwaclient.APIError
	if errors.As(err, &ae) {
		fmt.Printf("typed error: HTTP %d, code=%s, request_id=%s\n", ae.StatusCode, ae.Code, ae.RequestID)
	}

	// 6. Cancellation: a client that gives up mid-request has its queued
	//    work dropped and its admission budget released; the server logs
	//    the request ID (see the "request cancelled" line). The deadline
	//    lands after admission but well before alignment finishes.
	ctx, cancel := context.WithTimeout(context.Background(), ttfb/2)
	if _, err := c.AlignSAM(ctx, big); err != nil {
		fmt.Printf("cancelled client: %v\n", ctx.Err())
	} else {
		fmt.Println("cancellation demo: request finished before the deadline fired (fast machine)")
	}
	cancel()

	// 7. Duplicate-heavy traffic: real sequencing runs repeat the same
	//    sequence many times (PCR/optical duplicates). The server caches
	//    alignment regions by sequence, so a 90%-duplicate request costs
	//    roughly the unique 10% in pipeline work — every copy still gets
	//    its own record, rendered under its own read name.
	dupDemo(c, clientReads(reads))

	// Let the server finish abandoning the cancelled request before
	// reading /v1/metrics.
	for i := 0; i < 1000; i++ {
		h, err := c.Health(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		if h.ReadsInflight == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// 8. The server's own view of what just happened.
	metrics, err := c.Metrics(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n/v1/metrics:")
	for _, line := range strings.Split(strings.TrimSpace(metrics), "\n") {
		if strings.Contains(line, "requests_total") || strings.Contains(line, "reads_total") ||
			strings.Contains(line, "batches") || strings.Contains(line, "stage_seconds{") ||
			strings.Contains(line, "cancelled") || strings.Contains(line, "dropped") ||
			strings.Contains(line, "cache") {
			fmt.Println(" ", line)
		}
	}
}

// dupDemo fires a duplicate-heavy single-end request — 10% unique reads,
// each repeated 10 times under fresh names — and reports the cache's view.
func dupDemo(c *bwaclient.Client, unique []bwaclient.Read) {
	cacheStats := func() (hits, misses int64) {
		metrics, err := c.Metrics(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		for _, line := range strings.Split(metrics, "\n") {
			if n, ok := strings.CutPrefix(line, "bwaserve_cache_hits_total "); ok {
				fmt.Sscan(n, &hits)
			}
			if n, ok := strings.CutPrefix(line, "bwaserve_cache_misses_total "); ok {
				fmt.Sscan(n, &misses)
			}
		}
		return hits, misses
	}
	h0, m0 := cacheStats()

	// 90% duplication: every unique read appears 10 times, each copy under
	// its own name (as PCR duplicates would).
	var dup []bwaclient.Read
	for copyN := 0; copyN < 10; copyN++ {
		for i, r := range unique {
			dup = append(dup, bwaclient.Read{
				Name: fmt.Sprintf("dup%d.%d", i, copyN), Seq: r.Seq, Qual: r.Qual})
		}
	}
	t0 := time.Now()
	sam, err := c.AlignSAM(context.Background(), dup)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(t0)

	h1, m1 := cacheStats()
	fmt.Printf("duplicate-heavy: %d reads (%d unique) -> %d SAM records in %v; cache served %d hits / %d misses (%.0f%% hit rate)\n",
		len(dup), len(unique), strings.Count(string(sam), "\n"), elapsed.Round(time.Microsecond),
		h1-h0, m1-m0, 100*float64(h1-h0)/float64(h1-h0+m1-m0))
}
