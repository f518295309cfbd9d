package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/bsw"
	"repro/internal/core"
	"repro/internal/fmindex"
	"repro/internal/seq"
)

// Kernel inputs are dumped as text so that a kernel change can be timed on
// the exact inputs a workload produces without generating reads or building
// an index again — the shape of genarchbench's bsw harness (-pairs file):
//
//	<workload>.bsw.txt   one extension job per line: W H0 QUERY TARGET
//	<workload>.smem.txt  one read per line
//	<workload>.bwago     the index the reads are seeded against
//
// Sequences are ACGTN; an empty one is "*".
const (
	bswSuffix   = ".bsw.txt"
	smemSuffix  = ".smem.txt"
	indexSuffix = ".bwago"
)

// kernelRepeats is how often a replay runs its input; the median is
// reported.
const kernelRepeats = 5

func seqText(codes []byte) string {
	if len(codes) == 0 {
		return "*"
	}
	return string(seq.Decode(codes))
}

func seqCodes(text string) []byte {
	if text == "*" {
		return nil
	}
	return seq.Encode([]byte(text))
}

// DumpKernelInputs writes the kernel inputs of w's traced-pass sample to
// dir.
func DumpKernelInputs(w Workload, o Options, dir string) error {
	pi, _, codes, err := sampleIndex(w, o)
	if err != nil {
		return err
	}
	a, err := core.NewAlignerFrom(pi, core.ModeOptimized, core.DefaultOptions())
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var smem bytes.Buffer
	for _, c := range codes {
		fmt.Fprintln(&smem, seqText(c))
	}
	var jobs bytes.Buffer
	for _, j := range a.CollectBSWJobs(codes, &core.Workspace{}) {
		fmt.Fprintf(&jobs, "%d %d %s %s\n", j.W, j.H0, seqText(j.Query), seqText(j.Target))
	}
	var index bytes.Buffer
	if err := pi.WriteIndexV2(&index); err != nil {
		return err
	}
	for suffix, data := range map[string][]byte{bswSuffix: jobs.Bytes(), smemSuffix: smem.Bytes(), indexSuffix: index.Bytes()} {
		if err := os.WriteFile(filepath.Join(dir, w.Name+suffix), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// lines calls fn with every non-empty line of the file at path.
func lines(path string, fn func(line string) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for n := 1; sc.Scan(); n++ {
		if sc.Text() == "" {
			continue
		}
		if err := fn(sc.Text()); err != nil {
			return fmt.Errorf("%s:%d: %w", path, n, err)
		}
	}
	return sc.Err()
}

// ReplayBSW times bsw.ExtendScalar alone on a dumped job file.
func ReplayBSW(path string, out io.Writer) error {
	var jobs []bsw.Job
	err := lines(path, func(line string) error {
		f := strings.Fields(line)
		if len(f) != 4 {
			return fmt.Errorf("want W H0 QUERY TARGET, have %d fields", len(f))
		}
		w, err := strconv.Atoi(f[0])
		if err != nil {
			return err
		}
		h0, err := strconv.Atoi(f[1])
		if err != nil {
			return err
		}
		jobs = append(jobs, bsw.Job{W: w, H0: h0, Query: seqCodes(f[2]), Target: seqCodes(f[3])})
		return nil
	})
	if err != nil {
		return err
	}
	if len(jobs) == 0 {
		return fmt.Errorf("%s: no jobs", path)
	}
	opts := core.DefaultOptions()
	var us []float64
	var allocs, cells float64
	for i := 0; i < kernelRepeats; i++ {
		var u float64
		u, allocs, cells = replayBSW(nil, &opts, jobs)
		us = append(us, u)
	}
	s := summarize(us, "us")
	_, err = fmt.Fprintf(out, "bsw.ExtendScalar  %d jobs x %d  %.3f us/job (q1 %.3f, q3 %.3f)  %.1f cells/job  %.3f allocs/job\n",
		len(jobs), kernelRepeats, s.Value, s.Q1, s.Q3, cells, allocs)
	return err
}

// ReplaySMEM times Index.CollectIntervals alone on a dumped read file,
// against the index dumped beside it.
func ReplaySMEM(path string, out io.Writer) error {
	if !strings.HasSuffix(path, smemSuffix) {
		return fmt.Errorf("%s: want a *%s file, to find its *%s index", path, smemSuffix, indexSuffix)
	}
	f, err := os.Open(strings.TrimSuffix(path, smemSuffix) + indexSuffix)
	if err != nil {
		return err
	}
	pi, err := core.ReadIndex(f)
	f.Close()
	if err != nil {
		return err
	}
	a, err := core.NewAlignerFrom(pi, core.ModeOptimized, core.DefaultOptions())
	if err != nil {
		return err
	}
	var reads [][]byte
	if err := lines(path, func(line string) error {
		reads = append(reads, seqCodes(line))
		return nil
	}); err != nil {
		return err
	}
	if len(reads) == 0 {
		return fmt.Errorf("%s: no reads", path)
	}
	var us []float64
	var allocs, intervals float64
	var buf fmindex.SMEMBuf
	var ivs []fmindex.BiInterval
	for i := 0; i < kernelRepeats; i++ {
		n := 0
		m0, _ := mallocs()
		t0 := time.Now()
		for _, q := range reads {
			ivs = a.Idx.CollectIntervals(q, a.Opts.Seed, &buf, ivs)
			n += len(ivs)
		}
		wall := time.Since(t0)
		m1, _ := mallocs()
		us = append(us, wall.Seconds()*1e6/float64(len(reads)))
		allocs, intervals = float64(m1-m0)/float64(len(reads)), float64(n)/float64(len(reads))
	}
	s := summarize(us, "us")
	_, err = fmt.Fprintf(out, "fmindex.CollectIntervals  %d reads x %d  %.3f us/read (q1 %.3f, q3 %.3f)  %.2f intervals/read  %.3f allocs/read\n",
		len(reads), kernelRepeats, s.Value, s.Q1, s.Q3, intervals, allocs)
	return err
}
