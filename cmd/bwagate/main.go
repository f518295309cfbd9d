// Command bwagate is the gateway tier in front of a bwaserve replica
// fleet: it speaks the same versioned /v1 HTTP API and fans align
// requests out across the configured replicas, merging the ordered SAM
// streams back into responses byte-identical to a single server's.
//
//	bwagate -addr :8080 -replicas http://10.0.0.1:8080,http://10.0.0.2:8080
//
// Routing is consistent-hash on each read's encoded sequence, so
// duplicate-heavy traffic keeps every replica's result cache hot, with
// bounded-load spill to the next ring node when the owner is busy.
// Replicas are health-gated: periodic /v1/readyz probes plus passive
// failure detection stop new assignments to a draining or dead replica
// (in-flight streams finish), and a succeeding probe re-adds it. A
// partition whose replica dies mid-stream is retried on the next healthy
// ring node, resuming after the record groups already delivered.
// SIGINT/SIGTERM drain gracefully, exactly like bwaserve.
//
// Endpoints: POST /v1/align, POST /v1/align/paired, GET /v1/healthz,
// GET /v1/readyz, GET /v1/metrics (unversioned aliases included). See
// ARCHITECTURE.md's "Gateway tier" section for the routing and merge
// contracts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/gateway"
)

func die(err error) {
	fmt.Fprintln(os.Stderr, "bwagate:", err)
	os.Exit(1)
}

func main() {
	fs := flag.NewFlagSet("bwagate", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
	cfg := gateway.Flags(fs)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bwagate -replicas <url,url,...> [flags]\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])
	if len(fs.Args()) != 0 {
		die(fmt.Errorf("unexpected arguments %v; replicas are configured with -replicas", fs.Args()))
	}

	gw, err := gateway.New(*cfg)
	if err != nil {
		die(err)
	}
	gw.SetLogger(slog.New(slog.NewTextHandler(os.Stderr, nil)))

	httpSrv := &http.Server{Addr: *addr, Handler: gw}
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "[bwagate] listening on %s, routing across %d replicas (API /v1/align, /v1/align/paired, /v1/healthz, /v1/readyz, /v1/metrics)\n",
			*addr, len(cfg.Replicas))
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "[bwagate] %v: draining (timeout %v)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		if err := gw.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "[bwagate]", err)
		}
		cancel()
		// The HTTP connection drain gets its own budget: clients may still
		// be reading merged SAM responses the replicas already produced.
		hctx, hcancel := context.WithTimeout(context.Background(), *drain)
		if err := httpSrv.Shutdown(hctx); err != nil {
			fmt.Fprintln(os.Stderr, "[bwagate]", err)
		}
		hcancel()
		fmt.Fprintln(os.Stderr, "[bwagate] bye")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			die(err)
		}
	}
}
