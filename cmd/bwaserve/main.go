// Command bwaserve is the long-running alignment server: it loads (or
// builds) the reference and FM-index once at startup, keeps them resident,
// and serves single-end and paired-end alignment requests over the
// versioned /v1 HTTP API, multiplexing concurrent callers onto one shared
// worker pool. It is built entirely on the public SDK
// (pkg/bwamem); pkg/bwaclient is the matching client.
//
//	bwaserve -addr :8080 ref.fa                        serve a FASTA reference
//	bwaserve -addr :8080 ref.fa.bwago                  serve a prebuilt index
//	bwaserve -addr :8080 -index-mmap ref.fa.bwago      mmap the index (shared page cache)
//	bwaserve -addr :8080 -synthetic 200000             serve a synthetic genome (demo)
//
// With -index-mmap the index is mapped read-only instead of copied to
// the heap: start-up is near-instant regardless of index size and N
// bwaserve processes serving the same reference share one page-cached copy.
// The mapping is unmapped only after the graceful drain completes.
//
// Endpoints: POST /v1/align, POST /v1/align/paired, GET /v1/healthz,
// GET /v1/metrics (the unversioned originals remain as aliases). Request
// bodies are decoded incrementally and SAM responses are streamed back
// chunk by chunk as reads complete; a disconnected client's (or a
// -request-timeout expired request's) unstarted work is dropped from the
// queue and logged with its X-Request-Id. Duplicate single-end read
// sequences (PCR/optical duplicates) are served from a sharded result
// cache (-cache, -cache-bytes) instead of re-running the alignment
// pipeline. SIGINT/SIGTERM drain gracefully: in-flight requests complete,
// new ones are rejected with 503, then the process exits.
//
// See ARCHITECTURE.md for the full request path and the API contract.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/pkg/bwamem"
)

func die(err error) {
	fmt.Fprintln(os.Stderr, "bwaserve:", err)
	os.Exit(1)
}

func main() {
	fs := flag.NewFlagSet("bwaserve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	threads := fs.Int("t", 0, "worker threads (0 = NumCPU)")
	batch := fs.Int("batch", 0, "reads per worker task, the unit of dispatch (0 = 512)")
	maxInflight := fs.Int("max-inflight", 0, "max reads admitted at once, 429 beyond (0 = 65536)")
	maxRequest := fs.Int("max-request-reads", 0, "max reads per request (0 = max-inflight)")
	maxReadLen := fs.Int("max-read-len", 0, "max bases per read, 413 beyond (0 = 65536)")
	reqTimeout := fs.Duration("request-timeout", 0, "per-request alignment deadline (0 = none)")
	cache := fs.Bool("cache", true, "cache single-end results by read sequence (duplicate-heavy traffic)")
	cacheBytes := fs.Int64("cache-bytes", 0, "result-cache capacity in bytes (0 = 256 MiB)")
	drain := fs.Duration("drain", 0, "graceful-shutdown drain timeout (0 = 30s)")
	logFormat := fs.String("log-format", "json", "structured request-log format: json or text")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this address (empty disables)")
	debugRequests := fs.Int("debug-requests", 0, "trace-ring size for GET /v1/debug/requests (0 disables the endpoint)")
	indexMmap := fs.Bool("index-mmap", false, "mmap the .bwago index read-only instead of heap-loading it (many server processes share one page-cached copy)")
	synthetic := fs.Int("synthetic", 0, "serve a synthetic genome of this many bp instead of a reference file")
	seed := fs.Int64("seed", 42, "seed for -synthetic")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bwaserve [flags] <ref.fa[.bwago]>\n       bwaserve [flags] -synthetic <bp>\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])

	idx, err := loadIndex(fs.Args(), *synthetic, *seed, *indexMmap)
	if err != nil {
		die(err)
	}
	aln, err := bwamem.New(idx)
	if err != nil {
		die(err)
	}

	cfg := bwamem.DefaultServerConfig()
	cfg.Threads = *threads
	cfg.BatchSize = *batch
	cfg.MaxInFlightReads = *maxInflight
	cfg.MaxReadsPerRequest = *maxRequest
	cfg.MaxReadLen = *maxReadLen
	cfg.RequestTimeout = *reqTimeout
	cfg.DrainTimeout = *drain
	cfg.CacheEnabled = *cache
	cfg.CacheBytes = *cacheBytes
	cfg.DebugRequestTraces = *debugRequests
	srv, err := bwamem.NewServer(aln, cfg)
	if err != nil {
		die(err)
	}
	if err := srv.SetLogOutput(os.Stderr, *logFormat); err != nil {
		die(err)
	}
	if *debugAddr != "" {
		// net/http/pprof registers on DefaultServeMux; serve it on its own
		// listener so profiling never shares a port with the alignment API.
		go func() {
			fmt.Fprintf(os.Stderr, "[bwaserve] pprof listening on %s\n", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "[bwaserve] pprof:", err)
			}
		}()
	}
	info := idx.Info()
	fmt.Fprintf(os.Stderr, "[bwaserve] index resident: %d contigs, %d bp (%s, loaded in %v); %d workers, batch %d\n",
		len(idx.Contigs()), idx.ReferenceLength(), info.Source,
		info.LoadTime.Round(time.Millisecond), srv.Config().Threads, srv.Config().BatchSize)

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "[bwaserve] listening on %s (API /v1/align, /v1/align/paired, /v1/healthz, /v1/metrics)\n", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "[bwaserve] %v: draining (timeout %v)\n", sig, srv.Config().DrainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), srv.Config().DrainTimeout)
		drainErr := srv.Shutdown(ctx)
		if drainErr != nil {
			fmt.Fprintln(os.Stderr, "[bwaserve]", drainErr)
		}
		cancel()
		// The HTTP connection drain gets its own budget: clients may still
		// be reading large SAM responses the pipeline already produced.
		hctx, hcancel := context.WithTimeout(context.Background(), srv.Config().DrainTimeout)
		if err := httpSrv.Shutdown(hctx); err != nil {
			fmt.Fprintln(os.Stderr, "[bwaserve]", err)
		}
		hcancel()
		// Unmap only now: the scheduler has drained and no worker can still
		// touch slices borrowed from the mapping. If the drain timed out,
		// straggler workers may still be running — leave the mapping to
		// process exit rather than faulting them.
		if info.Mmap && drainErr == nil {
			if err := idx.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "[bwaserve]", err)
			}
		}
		fmt.Fprintln(os.Stderr, "[bwaserve] bye")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			die(err)
		}
	}
}

// loadIndex resolves the reference source: a prebuilt .bwago index
// (heap-loaded, or mmap'd with -index-mmap), a FASTA file (indexed in
// memory, preferring a sibling .bwago), or a synthetic genome.
func loadIndex(args []string, synthetic int, seed int64, useMmap bool) (*bwamem.Index, error) {
	if synthetic > 0 {
		if len(args) != 0 {
			return nil, fmt.Errorf("-synthetic and a reference path are mutually exclusive")
		}
		if useMmap {
			return nil, fmt.Errorf("-index-mmap needs a prebuilt .bwago index, not -synthetic")
		}
		fmt.Fprintf(os.Stderr, "[bwaserve] generating synthetic genome: %d bp (seed %d)\n", synthetic, seed)
		return bwamem.Synthetic(synthetic, seed)
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("expected one reference path (or -synthetic); run with -h for usage")
	}
	path := args[0]
	if useMmap {
		// -index-mmap cannot build, so it resolves the .bwago path itself
		// instead of going through OpenOrBuild's FASTA fallback.
		idxPath := path
		if !strings.HasSuffix(idxPath, ".bwago") {
			idxPath += ".bwago"
		}
		idx, err := bwamem.OpenMmap(idxPath)
		if err != nil {
			if os.IsNotExist(err) {
				return nil, fmt.Errorf("-index-mmap needs a prebuilt index: %s not found (build it with `bwamem index %s`)", idxPath, path)
			}
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "[bwaserve] mmap'd prebuilt index %s\n", idxPath)
		return idx, nil
	}
	idx, err := bwamem.OpenOrBuild(path)
	if err != nil {
		return nil, err
	}
	if src := idx.Info().Source; src == "fasta-build" {
		fmt.Fprintf(os.Stderr, "[bwaserve] indexed %s in memory in %v (build %s.bwago with `bwamem index` to skip this)\n",
			path, idx.Info().LoadTime.Round(time.Millisecond), path)
	} else {
		fmt.Fprintf(os.Stderr, "[bwaserve] loaded prebuilt index (%s)\n", src)
	}
	return idx, nil
}
