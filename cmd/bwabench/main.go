// Command bwabench is the repository's benchmark: four seeded workloads,
// end-to-end metrics with tracing off, a traced per-layer ledger, and the
// -compare, kernel-input dump and replay tools. internal/bench holds all of
// it; see internal/bench/README.md.
package main

import (
	"os"

	"repro/internal/bench"
)

func main() {
	os.Exit(bench.Main(os.Args[1:], os.Stdout, os.Stderr))
}
