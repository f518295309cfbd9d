// Package bwamem is the public Go SDK for the architecture-aware BWA-MEM
// reproduction: a stable facade over the internal index, pipeline, and
// server packages, for programs that embed the aligner instead of shelling
// out to the CLI or speaking HTTP.
//
// The package has three layers:
//
//   - Indexes. Build one from FASTA (Build, BuildFile), load a prebuilt
//     .bwago file onto the heap (Open) or as a shared read-only mapping
//     (OpenMmap), or synthesize a demo genome (Synthetic). An Index is
//     immutable once constructed and may back any number of Aligners.
//
//   - Aligners. New(idx, opts...) assembles an aligner over an index with
//     functional options (WithThreads, WithBatchSize, scoring knobs).
//     Alignment is context-first and streaming: Align and AlignPaired
//     invoke an emit callback per read (or pair) as records are formatted,
//     from worker goroutines; AlignSAM and AlignPairedSAM are the buffered
//     conveniences. Cancelling the context drops not-yet-started batches.
//
//   - Servers. NewServer wraps an Aligner's index in the long-lived
//     alignment service (resident index, admission control, a shared
//     worker pool, result cache, streamed SAM responses) serving the
//     versioned /v1 HTTP API. pkg/bwaclient is the matching client.
//
// Output is byte-identical across every path — direct Align calls and the
// HTTP server — and to the original BWA-MEM design the paper compares
// against, which the repository's tests and experiments run beside it. That
// is the project's like-for-like correctness contract.
//
// The exported surface of this package and pkg/bwaclient is locked by a
// golden-file test (TestAPISurfaceGolden); changing it deliberately
// requires regenerating the golden file, which makes accidental breakage
// visible in review.
package bwamem
