package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/pkg/bwamem"
)

// Options selects one benchmark run.
type Options struct {
	Seed    int64
	Seconds float64 // length of the timed window of each workload
	Quick   bool    // tiny inputs, for the smoke test
	Logf    func(format string, args ...any)
}

func (o Options) scale() scale {
	if o.Quick {
		return quickScale
	}
	return fullScale
}

// setupRepeats is how many times a run builds the index and starts the
// program: setup_s is their median, so one slow build does not set it.
const setupRepeats = 3

// minPasses is the fewest timed offline passes a run accepts, however short
// its window: a median needs something to be the median of.
const minPasses = 3

// Result is one workload's end-to-end outcome.
type Result struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`

	// Correct is the output check: digests agree across passes and thread
	// counts, served responses equal the offline oracle, and no read failed.
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"` // reads aligned in the timed window
	Failed    int  `json:"failed"`    // reads without one primary record, in a failed request, or in a response that differs from the oracle

	Metrics map[string]Summary `json:"metrics"`
	// Noisy names the metrics whose quartile spread within this run exceeded
	// their bound: their values are not settled numbers.
	Noisy []string `json:"noisy,omitempty"`

	Passes      int    `json:"passes"`                     // timed passes, or timed requests when serving
	InputDigest string `json:"input_digest"`               // SHA-256 of the generated reads as FASTQ
	SAMDigest   string `json:"sam_digest,omitempty"`       // SHA-256 of one pass's records in read order
	TailPct     string `json:"tail_percentile"`            // highest percentile the sample count supports
	OracleSize  int    `json:"oracle_responses,omitempty"` // served responses compared with the offline oracle
}

// FailedFrac is failed reads over attempted reads.
func (r *Result) FailedFrac() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// RunWorkload generates w's inputs from the seed, sets the program up,
// measures for o.Seconds with tracing off and checks the outputs.
func RunWorkload(ctx context.Context, w Workload, o Options) (*Result, error) {
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	in, err := Generate(w, o.Seed, o.scale(), int(math.Ceil(o.Seconds*1.25+1))*o.scale().coldPerSec)
	if err != nil {
		return nil, err
	}
	var res *Result
	if w.Serve {
		res, err = runServe(ctx, w, in, o)
	} else {
		res, err = runOffline(ctx, w, in, o)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	res.Workload, res.Why = w.Name, w.Why
	res.Correct = res.Correct && res.Failed == 0
	for _, d := range EndToEnd {
		if m, ok := res.Metrics[d.Name]; ok && m.Spread() > d.Bound && !slices.Contains(res.Noisy, d.Name) {
			res.Noisy = append(res.Noisy, d.Name)
		}
	}
	return res, nil
}

// buildAligner is the set-up every workload times: index the generated
// FASTA and assemble an aligner over it.
func buildAligner(fasta []byte, threads int) (*bwamem.Index, *bwamem.Aligner, error) {
	idx, err := bwamem.Build(bytes.NewReader(fasta))
	if err != nil {
		return nil, nil, err
	}
	aln, err := bwamem.New(idx, bwamem.WithThreads(threads))
	if err != nil {
		return nil, nil, err
	}
	return idx, aln, nil
}

// digestRecords hashes per-read record blocks in read order.
func digestRecords(blocks [][]byte) string {
	h := sha256.New()
	for _, b := range blocks {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tailPercentile is the percentile request_p99_ms reports for n samples:
// the 99th when at least minTailSamples lie beyond it, otherwise the highest
// the samples support, and the median when they support none. A dozen
// offline passes have no tail to speak of; naming their slowest one "p99"
// would report one descheduled pass as the workload's latency.
func tailPercentile(n int) float64 {
	p, ok := pickPercentile(n)
	if !ok {
		return 50
	}
	return min(p, 99)
}

// latencySummaries reports the median and the tail percentile of request
// latencies (milliseconds), each with quartiles taken over consecutive
// fifths of the requests, so a run whose latency drifted shows a spread.
func latencySummaries(ms []float64) (p50, tail Summary) {
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	tailPct := tailPercentile(len(ms))
	var seg50, segTail []float64
	const segments = 5
	if len(ms) >= segments {
		for s := 0; s < segments; s++ {
			part := append([]float64(nil), ms[s*len(ms)/segments:(s+1)*len(ms)/segments]...)
			sort.Float64s(part)
			seg50 = append(seg50, percentile(part, 50))
			segTail = append(segTail, percentile(part, tailPct))
		}
	} else {
		seg50, segTail = sorted, sorted
	}
	p50, tail = summarize(seg50, "ms"), summarize(segTail, "ms")
	p50.Value, p50.N = percentile(sorted, 50), len(sorted)
	tail.Value, tail.N = percentile(sorted, tailPct), len(sorted)
	return p50, tail
}

// tailLabel says which percentile request_p99_ms holds.
func tailLabel(n int) string {
	return fmt.Sprintf("p%g of %d samples", tailPercentile(n), n)
}

func runOffline(ctx context.Context, w Workload, in *Inputs, o Options) (*Result, error) {
	nproc := runtime.NumCPU()
	reads1 := convertReads[bwamem.Read](in.Reads)
	reads2 := convertReads[bwamem.Read](in.Reads2)
	nReads := len(reads1) + len(reads2)

	var idx *bwamem.Index
	var aln *bwamem.Aligner
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if aln != nil {
			aln.Close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if idx, aln, err = buildAligner(in.Fasta, nproc); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer aln.Close()

	// One pass aligns the whole read set; blocks[i] is read (or pair) i's
	// records. emit runs on worker goroutines, each index exactly once.
	pass := func(a *bwamem.Aligner) (time.Duration, [][]byte, error) {
		blocks := make([][]byte, len(reads1))
		emit := func(i int, rec []byte) { blocks[i] = rec }
		t0 := time.Now()
		var err error
		if w.Paired {
			err = a.AlignPaired(ctx, reads1, reads2, emit)
		} else {
			err = a.Align(ctx, reads1, emit)
		}
		return time.Since(t0), blocks, err
	}

	if _, _, err := pass(aln); err != nil { // warm-up: pool start, scratch growth
		return nil, err
	}
	res := &Result{Correct: true, Metrics: map[string]Summary{}, InputDigest: fastqDigest(in.Reads, in.Reads2)}
	var rates, walls []float64
	var last [][]byte
	start := time.Now()
	for len(rates) < minPasses || time.Since(start).Seconds() < o.Seconds {
		wall, blocks, err := pass(aln)
		if err != nil {
			return nil, err
		}
		rates = append(rates, float64(nReads)/wall.Seconds())
		walls = append(walls, wall.Seconds()*1e3)
		d := digestRecords(blocks)
		if res.SAMDigest == "" {
			res.SAMDigest = d
		} else if d != res.SAMDigest {
			o.Logf("%s: pass %d SAM digest %s differs from pass 1 %s", w.Name, len(rates), d, res.SAMDigest)
			res.Correct = false
			res.Failed += nReads
		}
		last = blocks
	}
	res.Passes = len(rates)
	res.Attempted = nReads * res.Passes

	// The same reads on one thread must give the same bytes.
	one, err := bwamem.New(idx, bwamem.WithThreads(1))
	if err != nil {
		return nil, err
	}
	_, blocks1, err := pass(one)
	one.Close()
	if err != nil {
		return nil, err
	}
	if d := digestRecords(blocks1); d != res.SAMDigest {
		o.Logf("%s: SAM digest at 1 thread %s differs from %d threads %s", w.Name, d, nproc, res.SAMDigest)
		res.Correct = false
	}

	var tally Tally
	for _, b := range last {
		t, err := ScoreSAM(b, w.Paired, w.ReadLen)
		if err != nil {
			return nil, err
		}
		tally.Add(t)
	}
	res.Failed += tally.Failed(nReads) * res.Passes

	res.Metrics["setup_s"] = summarize(setups, "s")
	res.Metrics["reads_per_s"] = summarize(rates, "1/s")
	res.Metrics["request_p50_ms"], res.Metrics["request_p99_ms"] = latencySummaries(walls)
	res.Metrics["correct_frac"] = exact(float64(tally.Correct)/float64(nReads), "frac")
	res.TailPct = tailLabel(len(walls))
	return res, nil
}
