package bwamem

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/seq"
)

// Index is an immutable FM-index plus packed reference over one set of
// contigs. Build one from FASTA, load a prebuilt .bwago file (Open,
// OpenMmap), or synthesize a demo genome (Synthetic); then hand it to New
// to construct Aligners — any number may share one Index.
//
// An Index loaded with OpenMmap aliases a read-only file mapping: Close
// must not be called while any Aligner built over it can still run (in a
// server, that means after the drain completes). For every other source
// Close is a no-op.
type Index struct {
	pi     *core.Prebuilt
	mapped *core.MappedIndex // non-nil only for OpenMmap loads
	info   IndexInfo
}

// IndexInfo describes how an Index came to be, for operational visibility
// (the server exports it on /v1/metrics).
type IndexInfo struct {
	// Source labels the load path: "v2-mmap", "v2-heap", "fasta-build",
	// "synthetic-build".
	Source string
	// Mmap is true when the index aliases a shared read-only file mapping.
	Mmap bool
	// LoadTime is the wall time from opening the source to a usable index.
	LoadTime time.Duration
	// ResidentBytes is the index data footprint. For mmap loads it is the
	// mapped file size (file-backed, shared across processes). For heap
	// loads it is 0 here and is resolved from the aligner (packed
	// reference, BWT column, occurrence table, suffix array) when
	// NewServer exports it on /v1/metrics.
	ResidentBytes int64
}

// Build parses a FASTA reference from r and constructs the index in
// memory (BWT, suffix array, occurrence tables). For references beyond a
// few megabases, build once with BuildFile or the bwamem CLI, Write the
// result, and Open it at startup instead.
func Build(fasta io.Reader) (*Index, error) {
	start := time.Now()
	ref, err := seq.ReferenceFromFasta(fasta)
	if err != nil {
		return nil, err
	}
	return buildFromRef(ref, "fasta-build", start)
}

// BuildFile is Build over a FASTA file path.
func BuildFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Build(f)
}

// Synthetic builds an index over a deterministic synthetic genome of bp
// bases with a mild repeat structure — for demos, benchmarks, and tests
// that should not depend on reference files. The same (bp, seed) always
// yields the same genome (one contig named "synthetic").
func Synthetic(bp int, seed int64) (*Index, error) {
	start := time.Now()
	ref, err := datasets.Genome(datasets.DefaultGenome("synthetic", bp, seed))
	if err != nil {
		return nil, err
	}
	return buildFromRef(ref, "synthetic-build", start)
}

func buildFromRef(ref *seq.Reference, source string, start time.Time) (*Index, error) {
	pi, err := core.BuildPrebuilt(ref)
	if err != nil {
		return nil, err
	}
	return &Index{pi: pi, info: IndexInfo{Source: source, LoadTime: time.Since(start)}}, nil
}

// Open loads a prebuilt .bwago index file onto the heap.
func Open(path string) (*Index, error) {
	start := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pi, err := core.ReadIndex(f)
	if err != nil {
		return nil, err
	}
	return &Index{pi: pi, info: IndexInfo{Source: "v2-heap", LoadTime: time.Since(start)}}, nil
}

// OpenMmap maps a .bwago index read-only instead of copying it
// to the heap: start-up is near-instant regardless of index size, and all
// processes mapping the same file share one page-cached copy. The caller
// must keep the Index (and so the mapping) alive until no Aligner built
// over it can run, then Close it. On platforms without mmap support this
// transparently falls back to a heap load.
func OpenMmap(path string) (*Index, error) {
	start := time.Now()
	mi, err := core.OpenIndexMmap(path)
	if err != nil {
		return nil, err
	}
	info := IndexInfo{Source: "v2-mmap", Mmap: true, LoadTime: time.Since(start),
		ResidentBytes: mi.MappedBytes()}
	if !mi.IsMapped() {
		// Platform heap fallback: report the load honestly so operators
		// don't account for a shared mapping that does not exist.
		info.Source, info.Mmap = "v2-heap", false
	}
	return &Index{pi: &mi.Prebuilt, mapped: mi, info: info}, nil
}

// OpenOrBuild resolves refPath the way the CLIs do: a path ending in
// .bwago is Opened directly; otherwise a sibling <refPath>.bwago is
// Opened when present, and the FASTA is built in memory when not. The
// returned Info().Source says which happened.
func OpenOrBuild(refPath string) (*Index, error) {
	idxPath := refPath
	if !strings.HasSuffix(idxPath, ".bwago") {
		idxPath += ".bwago"
	}
	if _, err := os.Stat(idxPath); err == nil {
		return Open(idxPath)
	} else if idxPath == refPath {
		// An explicit .bwago argument must not silently fall back to
		// parsing the index file as FASTA.
		return nil, err
	}
	return BuildFile(refPath)
}

// Write serializes the index in the current (version 4) .bwago format:
// page-aligned, checksummed, with the occurrence table persisted so Open
// skips its rebuild and OpenMmap can alias it directly.
func (x *Index) Write(w io.Writer) error { return x.pi.WriteIndexV2(w) }

// Info reports how the index was loaded.
func (x *Index) Info() IndexInfo { return x.info }

// Contigs returns the reference contig names, in index order.
func (x *Index) Contigs() []string {
	names := make([]string, len(x.pi.Ref.Contigs))
	for i, c := range x.pi.Ref.Contigs {
		names[i] = c.Name
	}
	return names
}

// ReferenceLength returns the total reference length in bases.
func (x *Index) ReferenceLength() int { return x.pi.Ref.Lpac() }

// Close releases the file mapping of an OpenMmap index. It must not be
// called while any Aligner over this Index can still run. For non-mmap
// indexes it is a no-op.
func (x *Index) Close() error {
	if x.mapped != nil {
		return x.mapped.Close()
	}
	return nil
}

// SimulateReads samples n single-end reads of readLen bases uniformly
// from the index's reference under a mild error model (0.5% substitutions,
// 10% of reads carrying one short indel) — deterministic for a given seed.
// Read names encode the sampled locus, so demos and tests can score
// mapping accuracy. Intended for examples, benchmarks, and tests.
func (x *Index) SimulateReads(n, readLen int, seed int64) ([]Read, error) {
	if n <= 0 || readLen <= 0 {
		return nil, fmt.Errorf("bwamem: invalid simulation size n=%d readLen=%d", n, readLen)
	}
	reads, err := datasets.Simulate(x.pi.Ref, datasets.Profile{
		Name: "sim", NumReads: n, ReadLen: readLen,
		SubRate: 0.005, IndelRate: 0.10, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return fromSeqReads(reads), nil
}

// SimulatePairs samples n read pairs of readLen bases with a
// 3×readLen-mean insert-size distribution, deterministic for a given
// seed. Both ends of a pair carry the same name, as SAM requires.
// Intended for examples, benchmarks, and tests.
func (x *Index) SimulatePairs(n, readLen int, seed int64) (reads1, reads2 []Read, err error) {
	if n <= 0 || readLen <= 0 {
		return nil, nil, fmt.Errorf("bwamem: invalid simulation size n=%d readLen=%d", n, readLen)
	}
	prof := datasets.DefaultPairs(datasets.Profile{
		Name: "sim", NumReads: n, ReadLen: readLen,
		SubRate: 0.005, IndelRate: 0.10, Seed: seed,
	})
	r1, r2, err := datasets.SimulatePairs(x.pi.Ref, prof)
	if err != nil {
		return nil, nil, err
	}
	return fromSeqReads(r1), fromSeqReads(r2), nil
}
