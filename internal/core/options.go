// Package core assembles the full BWA-MEM read aligner from the kernel
// substrates: SMEM seeding (fmindex), suffix-array lookup (sal), seed
// chaining (chain), banded Smith-Waterman extension (bsw), and SAM output.
//
// The same algorithm runs in two modes that mirror the paper's comparison:
//
//   - ModeBaseline reproduces original BWA-MEM's design: η=128 occurrence
//     table, compressed suffix array (factor 128), each read pushed through
//     every stage in turn with no software prefetch, and sequential scalar
//     seed extension with the contained-seed skip heuristic applied online.
//   - ModeOptimized is the paper's design (bwa-mem2) carried out in Go:
//     the bit-plane occurrence table (fmindex.OccBP, η=128, four counts
//     from popcounts over one 64-byte line, an amd64 kernel where the CPU
//     has POPCNT and BMI2), batch-staged seeding with software prefetch
//     (SeedBatch: fmindex.SeedLanes reads interleaved, paper §4.2), and the
//     flat suffix array, extending with the same scalar engine and online
//     skip heuristic. The paper's η=32 byte-per-base occurrence table and
//     its inter-task BSW lanes are not built: Table 4 costs the former
//     from its bucket geometry alone, and Tables 6-7 measure the shipped
//     extension kernel. Without a batched extension kernel the rest of the
//     batch-staged workflow (Fig. 2) has nothing to feed, so past seeding
//     each read goes through SAL, CHAIN and BSW in turn (AlignSeeded).
//
// Both modes produce identical alignments; this is the paper's central
// requirement and is enforced by tests.
package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/bsw"
	"repro/internal/chain"
	"repro/internal/fmindex"
)

// Mode selects which of the paper's two implementations drives the kernels.
type Mode int

const (
	// ModeBaseline is original BWA-MEM (the paper's "Orig.").
	ModeBaseline Mode = iota
	// ModeOptimized is the paper's architecture-aware design ("Opt.").
	ModeOptimized
)

func (m Mode) String() string {
	if m == ModeOptimized {
		return "optimized"
	}
	return "baseline"
}

// Options mirrors BWA-MEM's mem_opt_t (defaults from mem_opt_init).
type Options struct {
	// Scoring.
	MatchScore     int // -A (1)
	MismatchPen    int // -B (4)
	ODel, EDel     int // -O, -E (6, 1)
	OIns, EIns     int // (6, 1)
	PenClip5       int // 5' clipping penalty / end bonus (5)
	PenClip3       int // 3' clipping penalty / end bonus (5)
	W              int // band width (100)
	Zdrop          int // z-drop (100)
	ScoreThreshold int // -T: minimum score to output (30)

	// Seeding.
	Seed   fmindex.SeedOpts
	MaxOcc int // maximum occurrences sampled per seed interval (500)

	// Chaining.
	MaxChainGap    int     // 10000
	MaskLevel      float64 // 0.50
	DropRatio      float64 // 0.50
	MinChainWeight int     // 0

	// Region post-processing and mapq.
	MaskLevelRedun float64 // 0.95
	MapQCoefLen    int     // 50
	MapQCoefFac    float64 // log(MapQCoefLen)

	// Output.
	OutputAll bool // emit secondary alignments (bwa mem -a)
}

// DefaultOptions returns BWA-MEM's default parameters.
func DefaultOptions() Options {
	return Options{
		MatchScore: 1, MismatchPen: 4,
		ODel: 6, EDel: 1, OIns: 6, EIns: 1,
		PenClip5: 5, PenClip3: 5,
		W: 100, Zdrop: 100, ScoreThreshold: 30,
		Seed:        fmindex.DefaultSeedOpts(),
		MaxOcc:      500,
		MaxChainGap: 10000, MaskLevel: 0.50, DropRatio: 0.50, MinChainWeight: 0,
		MaskLevelRedun: 0.95,
		MapQCoefLen:    50, MapQCoefFac: math.Log(50),
	}
}

// ServerConfig tunes one deployment of the long-running alignment server
// (internal/server, cmd/bwaserve). It layers deployment knobs — pool size,
// batching, admission control, shutdown — over the per-alignment Options.
type ServerConfig struct {
	// Threads is the worker-pool size the server schedules batches over.
	// <= 0 means runtime.NumCPU (resolved by the server).
	Threads int
	// BatchSize is the number of reads handed to one scheduler task (the
	// unit of dispatch; it does not affect output). <= 0 means 512.
	BatchSize int

	// MaxInFlightReads caps the reads admitted (queued or executing) across
	// all requests; a request that would exceed it is rejected with 429.
	// <= 0 means DefaultMaxInFlightReads.
	MaxInFlightReads int
	// MaxReadsPerRequest caps a single request's read count (413 beyond).
	// <= 0 means MaxInFlightReads.
	MaxReadsPerRequest int
	// MaxReadLen caps a single read's length in bases (413 beyond):
	// admission charges per read, so without this one giant read could
	// occupy a worker far beyond its budgeted share. <= 0 means
	// DefaultMaxReadLen.
	MaxReadLen int

	// RequestTimeout bounds one request's alignment work. When it (or the
	// client's own disconnect) ends the request context, batches not yet
	// started are dropped from the queue and the request's admission
	// budget is released. 0 means no server-imposed deadline.
	RequestTimeout time.Duration

	// CacheEnabled turns on the sharded single-end result cache
	// (internal/rescache): a read whose sequence is resident, or repeats an
	// earlier read of the same request, is served from those alignment
	// regions (re-rendered per read, so output stays byte-identical)
	// instead of being aligned. Paired-end requests always bypass the
	// cache. The zero ServerConfig leaves it off; DefaultServerConfig
	// enables it.
	CacheEnabled bool
	// CacheBytes is the result cache's total capacity in bytes across all
	// shards. <= 0 means DefaultCacheBytes.
	CacheBytes int64

	// DrainTimeout bounds graceful shutdown's wait for in-flight requests.
	// <= 0 means 30s.
	DrainTimeout time.Duration

	// DebugRequestTraces sizes the per-request trace ring served by
	// GET /v1/debug/requests (the N most recent and N slowest request
	// timelines). 0, the default, disables the endpoint (it answers 404):
	// traces carry request IDs and routes, so retaining them is an explicit
	// deployment choice, not a default.
	DebugRequestTraces int
}

// Deployment defaults (shared by the server config and the pipeline's
// zero-value resolution).
const (
	DefaultBatchSize        = 512
	DefaultMaxInFlightReads = 1 << 16
	DefaultMaxReadLen       = 1 << 16
	DefaultDrainTimeout     = 30 * time.Second
	DefaultCacheBytes       = 256 << 20
)

// DefaultServerConfig returns the deployment defaults (NumCPU workers
// resolved at server start).
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		BatchSize:        DefaultBatchSize,
		MaxInFlightReads: DefaultMaxInFlightReads,
		DrainTimeout:     DefaultDrainTimeout,
		CacheEnabled:     true,
		CacheBytes:       DefaultCacheBytes,
	}
}

// Normalize resolves zero values to defaults and validates the result.
func (c *ServerConfig) Normalize(numCPU int) error {
	if c.Threads <= 0 {
		c.Threads = numCPU
	}
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.MaxInFlightReads <= 0 {
		c.MaxInFlightReads = DefaultMaxInFlightReads
	}
	if c.MaxReadsPerRequest <= 0 {
		c.MaxReadsPerRequest = c.MaxInFlightReads
	}
	if c.MaxReadLen <= 0 {
		c.MaxReadLen = DefaultMaxReadLen
	}
	if c.RequestTimeout < 0 {
		c.RequestTimeout = 0
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = DefaultCacheBytes
	}
	if c.DebugRequestTraces < 0 {
		c.DebugRequestTraces = 0
	}
	if c.MaxReadsPerRequest > c.MaxInFlightReads {
		return fmt.Errorf("core: MaxReadsPerRequest %d exceeds MaxInFlightReads %d",
			c.MaxReadsPerRequest, c.MaxInFlightReads)
	}
	return nil
}

// Fingerprint digests the full option set, every field that can influence
// a read's alignment output, into one value, for use as the option
// component of result-cache keys (internal/rescache): two aligners over
// the same index produce interchangeable regions for a sequence exactly
// when their fingerprints match. It hashes the %#v
// rendering of the struct so newly added option fields are picked up
// automatically instead of silently aliasing cache entries across
// configurations.
func (o *Options) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", *o)
	return h.Sum64()
}

// chainOpts derives the chaining parameter block.
func (o *Options) chainOpts() chain.Opts {
	return chain.Opts{
		MaxChainGap: o.MaxChainGap, W: o.W, MaxOcc: o.MaxOcc,
		MaskLevel: o.MaskLevel, DropRatio: o.DropRatio,
		MinChainWeight: o.MinChainWeight, MinSeedLen: o.Seed.MinSeedLen,
	}
}

// DefaultBSWParams derives the extension parameter block used by the kernel
// benchmarks (end bonus = PenClip3, matching right extensions).
func (o *Options) DefaultBSWParams() bsw.Params {
	return o.bswParams(o.PenClip3)
}

// bswParams derives the extension parameter block with the given end bonus
// (PenClip5 for left extensions, PenClip3 for right).
func (o *Options) bswParams(endBonus int) bsw.Params {
	p := bsw.Params{
		ODel: o.ODel, EDel: o.EDel, OIns: o.OIns, EIns: o.EIns,
		Zdrop: o.Zdrop, EndBonus: endBonus,
	}
	p.Mat = bsw.FillScoreMatrix(o.MatchScore, o.MismatchPen)
	return p
}

// calMaxGap is BWA's cal_max_gap: the longest gap reachable from a flank of
// the given query length under the scoring parameters, capped at 2W.
func (o *Options) calMaxGap(qlen int) int {
	lDel := int(float64(qlen*o.MatchScore-o.ODel)/float64(o.EDel) + 1)
	lIns := int(float64(qlen*o.MatchScore-o.OIns)/float64(o.EIns) + 1)
	l := lDel
	if lIns > l {
		l = lIns
	}
	if l < 1 {
		l = 1
	}
	if cap2 := o.W << 1; l > cap2 {
		l = cap2
	}
	return l
}
