// Package repro is a from-scratch, pure-Go reproduction of
//
//	Vasimuddin Md, Sanchit Misra, Heng Li, Srinivas Aluru.
//	"Efficient Architecture-Aware Acceleration of BWA-MEM for Multicore
//	Systems", IPDPS 2019 (the system released as bwa-mem2).
//
// The library implements the complete BWA-MEM short-read aligner — FM-index
// seeding (SMEM), suffix-array lookup (SAL), seed chaining, banded
// Smith-Waterman extension (BSW) and SAM output — in both the original
// design and the paper's architecture-aware redesign, with byte-identical
// output between the two, plus the instrumentation (cache-hierarchy
// simulator, operation counters, stage clocks) needed to regenerate every
// table and figure of the paper's evaluation.
//
// Beyond the one-shot CLI (cmd/bwamem), the repository serves the same
// pipeline as a long-lived HTTP service (internal/server, cmd/bwaserve)
// that keeps the FM-index resident, runs concurrent requests on one shared
// worker pool, and serves duplicate read sequences from a sharded result
// cache (internal/rescache).
//
// The public surface is pkg/bwamem (Go SDK: indexes, aligners, options,
// embedded server) and pkg/bwaclient (client for the versioned /v1 wire
// API); cmd/ and examples/ are built on them. See README.md for the
// quickstart and wire contract, and ARCHITECTURE.md for a top-to-bottom
// tour of the request path (admission → rescache → scheduler → pipeline
// stages → streamed SAM) plus the API versioning policy.
package repro
