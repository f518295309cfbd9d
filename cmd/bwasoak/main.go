// Command bwasoak sustains a seeded mixed workload against a live
// alignment server — in-process by default, N replicas behind an
// in-process gateway (-topology gateway:N; under -chaos kill-restart the
// replicas are bwaserve subprocesses it kills and restarts), or any
// external /v1 target — and checks the invariants a single request
// can't: byte-identity against the offline pipeline, typed error
// envelopes on every rejection, no transport errors, no goroutine or heap
// growth, the p99 latency SLO, and clean drain.
//
// The JSON report (schema bwago-soak/v2) goes to stdout. Exit status: 0
// when every invariant held, 1 with the violations named on stderr when
// any failed, 2 on setup errors.
//
//	bwasoak -duration 30s -seed 1
//	bwasoak -duration 2m -topology gateway:2 -chaos kill-restart
//	bwasoak -duration 1m -target http://localhost:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/soak"
)

func main() {
	fs := flag.NewFlagSet("bwasoak", flag.ExitOnError)
	o := soak.Flags(fs)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: bwasoak [flags]\n\nflags:\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}

	rep, err := soak.Run(ctx, *o, logf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bwasoak:", err)
		os.Exit(2)
	}
	if o.Report != "" {
		f, err := os.Create(o.Report)
		if err == nil {
			err = rep.Write(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bwasoak: writing report:", err)
			os.Exit(2)
		}
	}
	if err := rep.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bwasoak:", err)
		os.Exit(2)
	}
	if len(rep.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "bwasoak: %d invariant violation(s):\n", len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Fprintln(os.Stderr, "  "+v)
		}
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "bwasoak: all invariants held")
}
