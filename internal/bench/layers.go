package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bsw"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/fmindex"
	"repro/internal/pipeline"
	"repro/internal/seq"
	"repro/internal/server"
	"repro/pkg/bwaclient"
	"repro/pkg/bwamem"
)

// LedgerRow is one line of the layer ledger: what a layer costs per read on
// this workload's sample, measured on its own.
type LedgerRow struct {
	Layer     string  `json:"layer"`
	Call      string  `json:"call"`
	USPerRead float64 `json:"us_per_read"`
	Leaf      bool    `json:"leaf"` // counted towards the explained share
}

// LayerResult is one workload's traced pass.
type LayerResult struct {
	Workload string `json:"workload"`

	Correct bool `json:"correct"` // every path returned the same bytes
	// Mismatches names the serving paths whose bytes differed from the
	// reference.
	Mismatches []string `json:"mismatches,omitempty"`
	Attempted  int      `json:"attempted"` // reads in the sample
	Failed     int      `json:"failed"`    // reads without one primary record

	Metrics map[string]Summary `json:"metrics"`
	Ledger  []LedgerRow        `json:"ledger"`
	// ObservedUSPerRead is the client-observed wall time per read the ledger
	// explains: pipeline.Run on one thread offline, a request through
	// gateway:1 when serving. Explained is the share of it the leaf rows
	// add up to.
	ObservedUSPerRead float64 `json:"observed_us_per_read"`
	Explained         float64 `json:"explained_frac"`
	KernelShare       float64 `json:"kernel_share"`     // aligner stage time over observed time, serving rows
	TracingOverhead   float64 `json:"tracing_overhead"` // traced over untraced wall of the same core loop, minus 1
	Spans             []Span  `json:"-"`
}

// sample is what the traced pass pushes through every layer.
type sample struct {
	reads1, reads2 []seq.Read // reads2 only when paired; pair i is reads1[i], reads2[i]
	// requests cut the sample into consecutive request-sized ranges of
	// reads1 (and reads2): what one client would send.
	requests [][2]int
	// prime is sent, untimed, to every fresh server before the requests: a
	// serving workload's hot set, so that the timed requests meet a warm
	// cache as they do end to end.
	prime [][]seq.Read
}

func (s *sample) reads() int { return len(s.reads1) + len(s.reads2) }

// traceSample builds the sample for w from the seed.
func traceSample(w Workload, seed int64, sc scale) (*Inputs, *sample, error) {
	n := max(w.TraceSample/sc.readDiv, 2)
	s := &sample{}
	per := sc.requestReads
	if w.Serve {
		cold := n * (sc.requestReads - sc.requestDups)
		in, err := Generate(w, seed, sc, cold)
		if err != nil {
			return nil, nil, err
		}
		c := in.Clients[0]
		for _, req := range c.HotRequests() {
			s.prime = append(s.prime, convertReads[seq.Read](req))
		}
		for i := 0; i < n; i++ {
			req, ok := c.Next()
			if !ok {
				return nil, nil, fmt.Errorf("bench: cold pool ran out after %d sample requests", i)
			}
			s.reads1 = append(s.reads1, convertReads[seq.Read](req)...)
		}
		s.cut(per)
		return in, s, nil
	}
	w.Reads = n * sc.readDiv // Generate divides again
	in, err := Generate(w, seed, sc, 0)
	if err != nil {
		return nil, nil, err
	}
	s.reads1, s.reads2 = in.Reads, in.Reads2
	if w.Paired {
		per /= 2 // pairs per request, so that a request still carries requestReads reads
	}
	s.cut(per)
	return in, s, nil
}

func (s *sample) cut(per int) {
	for lo := 0; lo < len(s.reads1); lo += per {
		s.requests = append(s.requests, [2]int{lo, min(lo+per, len(s.reads1))})
	}
}

// sampleIndex builds w's traced-pass sample, the index data over its
// genome and the sample's reads as codes: all first ends, then all second
// ends.
func sampleIndex(w Workload, o Options) (*core.Prebuilt, *sample, [][]byte, error) {
	in, s, err := traceSample(w, o.Seed, o.scale())
	if err != nil {
		return nil, nil, nil, err
	}
	pi, err := core.BuildPrebuilt(in.Ref)
	if err != nil {
		return nil, nil, nil, err
	}
	codes := make([][]byte, 0, s.reads())
	for _, rd := range s.reads1 {
		codes = append(codes, seq.Encode(rd.Seq))
	}
	for _, rd := range s.reads2 {
		codes = append(codes, seq.Encode(rd.Seq))
	}
	return pi, s, codes, nil
}

// layerRun is the state of one traced pass.
type layerRun struct {
	ctx   context.Context
	w     Workload
	nproc int
	s     *sample
	tr    *Tracer

	opt, base *core.Aligner
	codes     [][]byte // encoded reads: all first ends, then all second ends

	m   map[string]float64 // the per-layer metrics, by name
	aux map[string]float64 // other measurements the ledger needs
	res *LayerResult
}

// mallocs reads the allocation counters; it stops the world, so it is only
// called between stages, never inside a timed loop.
func mallocs() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// TraceWorkload runs w's sample through every layer, one call at a time on
// this goroutine, and returns the per-layer metrics and the ledger.
func TraceWorkload(ctx context.Context, w Workload, o Options) (*LayerResult, error) {
	pi, s, codes, err := sampleIndex(w, o)
	if err != nil {
		return nil, err
	}
	r := &layerRun{ctx: ctx, w: w, nproc: runtime.NumCPU(), s: s, codes: codes, tr: NewTracer(w.Name),
		m: map[string]float64{}, aux: map[string]float64{}, res: &LayerResult{Workload: w.Name, Correct: true, Attempted: s.reads()}}
	if r.opt, err = core.NewAlignerFrom(pi, core.ModeOptimized, core.DefaultOptions()); err != nil {
		return nil, err
	}
	if r.base, err = core.NewAlignerFrom(pi, core.ModeBaseline, core.DefaultOptions()); err != nil {
		return nil, err
	}
	r.runPipeline(r.opt, r.nproc) // untimed: fault the index in, grow the heap

	ivs := r.layerFMIndex()
	r.layerSAL(ivs)
	r.layerBSW()
	clock := r.layerCore()
	refSAM := r.layerPipeline()
	r.layerSeq()
	if err := r.layerServing(refSAM); err != nil {
		return nil, err
	}
	r.ledger(clock)

	r.res.Metrics = make(map[string]Summary, len(PerLayer))
	for _, d := range PerLayer {
		v, ok := r.m[d.Name]
		if !ok {
			return nil, fmt.Errorf("bench: traced pass did not produce %s", d.Name)
		}
		r.res.Metrics[d.Name] = exact(v, d.Unit)
	}
	r.res.Spans = r.tr.Spans()
	return r.res, nil
}

func (r *layerRun) nReads() float64 { return float64(len(r.codes)) }

// layerFMIndex times seeding alone: Index.CollectIntervals per read.
func (r *layerRun) layerFMIndex() [][]fmindex.BiInterval {
	a := r.opt
	var buf fmindex.SMEMBuf
	var scratch, arena []fmindex.BiInterval
	ends := make([]int, len(r.codes)) // read i's intervals are arena[ends[i-1]:ends[i]]
	m0, _ := mallocs()
	for i, q := range r.codes {
		id := r.tr.Begin("fmindex.CollectIntervals")
		scratch = a.Idx.CollectIntervals(q, a.Opts.Seed, &buf, scratch)
		r.tr.End(id, len(scratch))
		arena = append(arena, scratch...)
		ends[i] = len(arena)
	}
	m1, _ := mallocs()
	lt := r.tr.Sum("fmindex.CollectIntervals")
	r.m["fmindex.smem_us_per_read"] = float64(lt.Total) / 1e3 / r.nReads()
	r.m["fmindex.smem_allocs_per_read"] = float64(m1-m0) / r.nReads()
	r.m["fmindex.intervals_per_read"] = float64(lt.Count) / r.nReads()
	out := make([][]fmindex.BiInterval, len(r.codes))
	for i, lo := 0, 0; i < len(out); i++ {
		out[i], lo = arena[lo:ends[i]], ends[i]
	}
	return out
}

// layerSAL times the suffix-array lookups those intervals cause, sampled
// the way the aligner samples them (at most MaxOcc rows per interval).
func (r *layerRun) layerSAL(ivs [][]fmindex.BiInterval) {
	a := r.opt
	sink := 0
	for _, read := range ivs {
		id := r.tr.Begin("sal.Lookup")
		n := 0
		for _, p := range read {
			step := 1
			if p.S > a.Opts.MaxOcc {
				step = p.S / a.Opts.MaxOcc
			}
			for k, c := 0, 0; k < p.S && c < a.Opts.MaxOcc; k, c = k+step, c+1 {
				sink += a.SA.Lookup(p.K + k)
				n++
			}
		}
		r.tr.End(id, n)
	}
	lt := r.tr.Sum("sal.Lookup")
	r.m["sal.lookup_ns"] = float64(lt.Total) / float64(max(lt.Count, 1))
	r.m["sal.lookups_per_read"] = float64(lt.Count) / r.nReads()
	runtime.KeepAlive(sink)
}

// layerBSW collects the extension jobs the sample causes and times
// bsw.ExtendScalar on each.
func (r *layerRun) layerBSW() {
	a := r.opt
	id := r.tr.Begin("core.CollectBSWJobs")
	jobs := a.CollectBSWJobs(r.codes, &core.Workspace{})
	r.tr.End(id, len(jobs))
	us, allocs, cells := replayBSW(r.tr, &a.Opts, jobs)
	r.m["bsw.extend_us_per_job"] = us
	r.m["bsw.allocs_per_job"] = allocs
	r.m["bsw.cells_per_job"] = cells
	r.m["bsw.jobs_per_read"] = float64(len(jobs)) / r.nReads()
}

// replayBSW runs every job through the scalar kernel and returns µs,
// allocations and DP cells per job.
func replayBSW(tr *Tracer, opts *core.Options, jobs []bsw.Job) (us, allocs, cells float64) {
	par := opts.DefaultBSWParams()
	var buf bsw.ScalarBuf
	var st bsw.CellStats
	m0, _ := mallocs()
	t0 := time.Now()
	for i := range jobs {
		j := &jobs[i]
		id := tr.Begin("bsw.ExtendScalar")
		bsw.ExtendScalar(&par, j.Query, j.Target, j.W, j.H0, &buf, &st)
		tr.End(id, 1)
	}
	wall := time.Since(t0)
	m1, _ := mallocs()
	n := float64(max(len(jobs), 1))
	return wall.Seconds() * 1e6 / n, float64(m1-m0) / n, float64(st.ScalarCells) / n
}

// coreLoop is AlignBatch over the sample in pipeline-sized batches, then
// SAM formatting per read or pair: the work pipeline.Run schedules, called
// directly. It returns the two walls and the stage clock.
func (r *layerRun) coreLoop(tr *Tracer) (align, format time.Duration, clock counters.StageClock, ab, sf [2]uint64) {
	a := r.opt
	ws := &core.Workspace{Clock: &clock}
	regs := make([][]core.Region, len(r.codes))
	m0, b0 := mallocs()
	t0 := time.Now()
	// First and second ends are batched separately, as RunPaired does.
	for _, part := range [][2]int{{0, len(r.s.reads1)}, {len(r.s.reads1), len(r.codes)}} {
		for lo := part[0]; lo < part[1]; lo += core.DefaultBatchSize {
			hi := min(lo+core.DefaultBatchSize, part[1])
			id := tr.Begin("core.AlignBatch")
			copy(regs[lo:hi], a.AlignBatch(r.codes[lo:hi], ws))
			tr.End(id, hi-lo)
		}
	}
	align = time.Since(t0)
	m1, b1 := mallocs()
	t0 = time.Now()
	n := len(r.s.reads1)
	if r.w.Paired {
		id := tr.Begin("core.InferPairStats")
		ps := a.InferPairStats(regs[:n], regs[n:])
		tr.End(id, n)
		for i := 0; i < n; i++ {
			id := tr.Begin("core.AppendSAMPair")
			a.AppendSAMPair(nil, &ps, &r.s.reads1[i], &r.s.reads2[i], r.codes[i], r.codes[n+i], regs[i], regs[n+i])
			tr.End(id, 2)
		}
	} else {
		for i := 0; i < n; i++ {
			id := tr.Begin("core.AppendSAM")
			a.AppendSAM(nil, &r.s.reads1[i], r.codes[i], regs[i])
			tr.End(id, 1)
		}
	}
	format = time.Since(t0)
	m2, b2 := mallocs()
	return align, format, clock, [2]uint64{m1 - m0, b1 - b0}, [2]uint64{m2 - m1, b2 - b1}
}

// layerCore runs the core loop untraced, traced and untraced again; traced
// over the faster of its two untraced neighbours is what recording spans
// costs (interference only ever slows a loop down).
func (r *layerRun) layerCore() counters.StageClock {
	ua, uf, _, ab, sf := r.coreLoop(nil)
	ta, tf, clock, _, _ := r.coreLoop(r.tr)
	ua2, uf2, _, _, _ := r.coreLoop(nil)
	r.res.TracingOverhead = (ta+tf).Seconds()/min(ua+uf, ua2+uf2).Seconds() - 1
	n := r.nReads()
	r.m["core.alignbatch_us_per_read"] = ua.Seconds() * 1e6 / n
	r.m["core.alignbatch_allocs_per_read"] = float64(ab[0]) / n
	r.m["core.alignbatch_bytes_per_read"] = float64(ab[1]) / n
	r.m["core.samform_us_per_read"] = uf.Seconds() * 1e6 / n
	r.m["core.samform_allocs_per_read"] = float64(sf[0]) / n
	r.m["core.chain_share"] = clock.T[counters.StageChain].Seconds() / ta.Seconds()
	r.m["core.pair_us_per_pair"] = 0
	if r.w.Paired {
		r.m["core.pair_us_per_pair"] = uf.Seconds() * 1e6 / float64(len(r.s.reads1))
	}
	r.m["core.index_bytes"] = float64(r.opt.IndexFootprint())
	return clock
}

// runPipeline is one pipeline.Run (or RunPaired) over the sample.
func (r *layerRun) runPipeline(a *core.Aligner, threads int) (time.Duration, []byte) {
	t0 := time.Now()
	var res *pipeline.Result
	if r.w.Paired {
		res = pipeline.RunPaired(a, r.s.reads1, r.s.reads2, pipeline.Config{Threads: threads})
	} else {
		res = pipeline.Run(a, r.s.reads1, pipeline.Config{Threads: threads})
	}
	return time.Since(t0), res.SAM
}

// pipelineRepeats is how often each pipeline row runs; its median is kept.
const pipelineRepeats = 3

// layerPipeline times the scheduler on 1 and nproc threads, and the baseline
// implementation on 1, so both sides of the paper's speedup are on record.
func (r *layerRun) layerPipeline() []byte {
	var sam []byte
	row := func(name string, a *core.Aligner, threads int) float64 {
		var walls []float64
		for i := 0; i < pipelineRepeats; i++ {
			id := r.tr.Begin(name)
			wall, out := r.runPipeline(a, threads)
			r.tr.End(id, r.s.reads())
			walls = append(walls, wall.Seconds())
			if sam == nil {
				sam = out
			} else if !bytes.Equal(sam, out) {
				r.res.Correct = false
			}
		}
		sort.Float64s(walls)
		return walls[len(walls)/2]
	}
	t1 := row("pipeline.Run/t1", r.opt, 1)
	tn := row(fmt.Sprintf("pipeline.Run/t%d", r.nproc), r.opt, r.nproc)
	b1 := row("pipeline.Run/baseline-t1", r.base, 1)
	n := r.nReads()
	r.m["pipeline.t1_reads_per_s"] = n / t1
	r.m["pipeline.scaling_eff"] = t1 / (float64(r.nproc) * tn)
	r.m["pipeline.baseline_t1_reads_per_s"] = n / b1
	coreUS := r.m["core.alignbatch_us_per_read"] + r.m["core.samform_us_per_read"]
	r.m["pipeline.overhead_frac"] = 1 - coreUS*n/1e6/t1
	r.aux["pipeline.tN_us_per_read"] = tn * 1e6 / n // for the ledger only

	t, err := ScoreSAM(sam, r.w.Paired, r.w.ReadLen)
	if err != nil {
		r.res.Correct = false
	}
	r.res.Failed = t.Failed(r.s.reads())
	return sam
}

// layerSeq times FASTQ decoding of the request bodies.
func (r *layerRun) layerSeq() {
	for _, rq := range r.s.requests {
		var body bytes.Buffer
		// A bytes.Buffer never returns a write error.
		_ = seq.WriteFastq(&body, r.s.reads1[rq[0]:rq[1]])
		if r.w.Paired {
			_ = seq.WriteFastq(&body, r.s.reads2[rq[0]:rq[1]])
		}
		id := r.tr.Begin("bwamem.ReadFastq")
		reads, err := bwamem.ReadFastq(&body)
		r.tr.End(id, len(reads))
		if err != nil {
			r.res.Correct = false
		}
	}
	lt := r.tr.Sum("bwamem.ReadFastq")
	r.m["seq.fastq_us_per_read"] = float64(lt.Total) / 1e3 / float64(max(lt.Count, 1))
}

// jsonRead and encodeRequest render a request the way bwaclient does, for
// the rows that call the handler without a client.
type jsonRead struct {
	Name string `json:"name"`
	Seq  string `json:"seq"`
	Qual string `json:"qual,omitempty"`
}

func jsonReads(reads []seq.Read) []jsonRead {
	out := make([]jsonRead, len(reads))
	for i, r := range reads {
		out[i] = jsonRead{Name: r.Name, Seq: string(r.Seq), Qual: string(r.Qual)}
	}
	return out
}

func encodeRequest(r1, r2 []seq.Read) (path string, body []byte) {
	var err error
	if r2 != nil {
		path = "/v1/align/paired?header=0"
		body, err = json.Marshal(map[string][]jsonRead{"reads1": jsonReads(r1), "reads2": jsonReads(r2)})
	} else {
		path = "/v1/align?header=0"
		body, err = json.Marshal(map[string][]jsonRead{"reads": jsonReads(r1)})
	}
	if err != nil {
		panic(err) // strings and slices of strings always marshal
	}
	return path, body
}

// sender delivers one request and returns the SAM text; serverTiming is the
// response's Server-Timing header when the sender can see it.
type sender func(r1, r2 []seq.Read) (sam []byte, serverTiming string, err error)

// handlerSender calls h directly, no socket.
func handlerSender(h http.Handler) sender {
	return func(r1, r2 []seq.Read) ([]byte, string, error) {
		path, body := encodeRequest(r1, r2)
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return nil, "", fmt.Errorf("handler answered %d: %s", rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes(), rec.Header().Get("Server-Timing"), nil
	}
}

// clientSender goes through bwaclient over loopback.
func clientSender(ctx context.Context, cl *bwaclient.Client) sender {
	toClient := convertReads[bwaclient.Read, seq.Read]
	return func(r1, r2 []seq.Read) ([]byte, string, error) {
		if r2 != nil {
			sam, err := cl.AlignPairedSAM(ctx, toClient(r1), toClient(r2))
			return sam, "", err
		}
		sam, err := cl.AlignSAM(ctx, toClient(r1))
		return sam, "", err
	}
}

// servingRow is one path to the aligner, driven with the sample's requests
// one after another.
type servingRow struct {
	wall    time.Duration
	sam     []byte             // all responses, concatenated
	phaseMS map[string]float64 // Server-Timing phases, mean per request
}

// prime sends the sample's hot set, untimed, to a fresh server.
func (r *layerRun) prime(send sender) error {
	for _, req := range r.s.prime {
		if _, _, err := send(req, nil); err != nil {
			return fmt.Errorf("priming: %w", err)
		}
	}
	return nil
}

func (r *layerRun) drive(name string, send sender) (servingRow, error) {
	row := servingRow{phaseMS: map[string]float64{}}
	t0 := time.Now()
	for _, rq := range r.s.requests {
		r1 := r.s.reads1[rq[0]:rq[1]]
		var r2 []seq.Read
		n := len(r1)
		if r.w.Paired {
			r2 = r.s.reads2[rq[0]:rq[1]]
			n *= 2
		}
		id := r.tr.Begin(name)
		sam, timing, err := send(r1, r2)
		r.tr.End(id, n)
		if err != nil {
			return row, fmt.Errorf("%s: %w", name, err)
		}
		row.sam = append(row.sam, sam...)
		for phase, ms := range parseServerTiming(timing) {
			row.phaseMS[phase] += ms / float64(len(r.s.requests))
		}
	}
	row.wall = time.Since(t0)
	return row, nil
}

// parseServerTiming reads "name;dur=<ms>, ..." into a map.
func parseServerTiming(h string) map[string]float64 {
	out := map[string]float64{}
	for _, entry := range strings.Split(h, ",") {
		name, attr, ok := strings.Cut(strings.TrimSpace(entry), ";")
		if v, isDur := strings.CutPrefix(strings.TrimSpace(attr), "dur="); ok && isDur {
			if ms, err := strconv.ParseFloat(v, 64); err == nil {
				out[name] = ms
			}
		}
	}
	return out
}

// scrape reads a Prometheus text exposition into name{labels} -> value.
func scrape(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && line[0] != '#' {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out
}

// newReplica is a fresh one-thread server over the optimized aligner. One
// thread, because the requests arrive one at a time and each is a single
// batch: the row beneath it in the ledger is pipeline.Run on one thread.
func (r *layerRun) newReplica(cache bool) (replica, error) {
	cfg := core.DefaultServerConfig()
	cfg.Threads, cfg.CacheEnabled = 1, cache
	srv, err := server.New(r.opt, cfg)
	if err != nil {
		return replica{}, err
	}
	return replica{handler: srv.Handler(), close: srv.Close}, nil
}

// layerServing drives the same requests through the handler in process,
// through bwaclient over loopback, and through a gateway over one and two
// replicas. Every path gets fresh servers, so no cache carries over.
func (r *layerRun) layerServing(refSAM []byte) error {
	n := r.nReads()
	usPerRead := func(d time.Duration) float64 { return d.Seconds() * 1e6 / n }
	sameBytes := func(name string, sam []byte, want []byte) {
		if !bytes.Equal(sam, want) {
			r.res.Correct = false
			r.res.Mismatches = append(r.res.Mismatches, name)
		}
	}

	// Handler in process, cache off: every read is aligned, so the
	// difference to pipeline.Run on one thread is what HTTP, decoding,
	// admission, the coalescer and the streamer cost.
	rep, err := r.newReplica(false)
	if err != nil {
		return err
	}
	before := scrape(rep.handler)
	plain, err := r.drive("server.Handler/nocache", handlerSender(rep.handler))
	after := scrape(rep.handler)
	if cerr := rep.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if !r.w.Paired { // a paired request infers insert sizes from its own pairs, the whole sample from all
		sameBytes("handler", plain.sam, refSAM)
	}
	r.m["server.handler_us_per_read"] = usPerRead(plain.wall) - 1e6/r.m["pipeline.t1_reads_per_s"]
	r.m["server.reads_per_batch"] = 0
	if b := after["bwaserve_batches_total"] - before["bwaserve_batches_total"]; b > 0 {
		r.m["server.reads_per_batch"] = (after["bwaserve_reads_total"] - before["bwaserve_reads_total"]) / b
	}

	// Handler in process, cache on: the production configuration.
	rep, err = r.newReplica(true)
	if err != nil {
		return err
	}
	send := handlerSender(rep.handler)
	if err := r.prime(send); err != nil {
		return err
	}
	before = scrape(rep.handler)
	cached, err := r.drive("server.Handler", send)
	after = scrape(rep.handler)
	if cerr := rep.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	sameBytes("handler-cached", cached.sam, plain.sam)
	for _, phase := range []string{"parse", "admit", "cache", "ttfb"} {
		r.m["server."+phase+"_ms"] = cached.phaseMS[phase]
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("bwaserve_cache_hits_total")+delta("bwaserve_cache_coalesced_total"), delta("bwaserve_cache_misses_total")
	r.m["rescache.hit_ratio"] = 0
	if hits+misses > 0 {
		r.m["rescache.hit_ratio"] = hits / (hits + misses)
	}
	stageUS := delta("bwaserve_stage_seconds_total") * 1e6 / n

	// The same handler behind a socket, reached through bwaclient.
	overLoopback := func(name string, replicas int, viaGateway bool) (servingRow, map[string]float64, error) {
		var reps []replica
		for i := 0; i < replicas; i++ {
			rep, err := r.newReplica(true)
			if err != nil {
				return servingRow{}, nil, err
			}
			reps = append(reps, rep)
		}
		st, err := StartStack(r.ctx, reps, viaGateway)
		if err != nil {
			return servingRow{}, nil, err
		}
		cl, err := st.Client()
		if err != nil {
			st.Close()
			return servingRow{}, nil, err
		}
		send := clientSender(r.ctx, cl)
		err = r.prime(send)
		var row servingRow
		if err == nil {
			row, err = r.drive(name, send)
		}
		var gw map[string]float64
		if viaGateway {
			gw = scrape(st.gw.Handler())
		}
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		return row, gw, err
	}
	direct, _, err := overLoopback("bwaclient.AlignSAM/direct", 1, false)
	if err != nil {
		return err
	}
	gw1, _, err := overLoopback("bwaclient.AlignSAM/gateway:1", 1, true)
	if err != nil {
		return err
	}
	gw2, gwMetrics, err := overLoopback("bwaclient.AlignSAM/gateway:2", 2, true)
	if err != nil {
		return err
	}
	sameBytes("loopback", direct.sam, plain.sam)
	sameBytes("gateway:1", gw1.sam, plain.sam)
	sameBytes("gateway:2", gw2.sam, plain.sam)
	r.m["bwaclient.overhead_us_per_read"] = usPerRead(direct.wall - cached.wall)
	r.m["gateway.overhead_us_per_read"] = usPerRead(gw1.wall - direct.wall)
	var assigned []float64
	for name, v := range gwMetrics {
		if strings.HasPrefix(name, "bwagate_replica_assigned_total{") {
			assigned = append(assigned, v)
		}
	}
	sort.Float64s(assigned)
	r.m["gateway.assigned_skew"] = 0
	if total := assigned[0] + assigned[len(assigned)-1]; len(assigned) == 2 && total > 0 {
		r.m["gateway.assigned_skew"] = (assigned[1] - assigned[0]) / total
	}
	r.m["gateway.spilled"] = gwMetrics["bwagate_spills_total"]
	r.m["gateway.retries"] = gwMetrics["bwagate_retries_total"]

	// For the ledger.
	r.aux["row.handler_us"] = usPerRead(cached.wall)
	r.aux["row.direct_us"] = usPerRead(direct.wall)
	r.aux["row.gateway1_us"] = usPerRead(gw1.wall)
	r.aux["row.gateway2_us"] = usPerRead(gw2.wall)
	r.aux["row.stage_us"] = stageUS
	r.aux["row.requests"] = float64(len(r.s.requests))
	return nil
}

// ledger lays the measurements out as one row per layer, each the cost per
// read of that layer alone, and says how much of the client-observed time
// the leaf rows add up to. Offline the client is the caller of pipeline.Run
// on one thread; serving, it is a bwaclient behind gateway:1.
func (r *layerRun) ledger(clock counters.StageClock) {
	n := r.nReads()
	stage := func(s counters.Stage) float64 { return clock.T[s].Seconds() * 1e6 / n }
	perReq := r.aux["row.requests"] / n * 1e3 // ms per request -> µs per read
	rows := []LedgerRow{
		{"fmindex", "Index.CollectIntervals", r.m["fmindex.smem_us_per_read"], !r.w.Serve},
		{"fmindex", "StageClock SMEM in AlignBatch", stage(counters.StageSMEM), false},
		{"sal", "SA.Lookup", r.m["sal.lookup_ns"] * r.m["sal.lookups_per_read"] / 1e3, !r.w.Serve},
		{"sal", "StageClock SAL in AlignBatch", stage(counters.StageSAL), false},
		{"chain", "StageClock CHAIN in AlignBatch", stage(counters.StageChain), !r.w.Serve},
		{"bsw", "StageClock BSW-pre+BSW in AlignBatch", stage(counters.StageBSWPre) + stage(counters.StageBSW), !r.w.Serve},
		{"bsw", "ExtendScalar on every collected job", r.m["bsw.extend_us_per_job"] * r.m["bsw.jobs_per_read"], false},
		{"core", "StageClock Misc in AlignBatch", stage(counters.StageMisc), !r.w.Serve},
		{"core", "Aligner.AlignBatch", r.m["core.alignbatch_us_per_read"], false},
		{"core", "Aligner.AppendSAM / AppendSAMPair", r.m["core.samform_us_per_read"], !r.w.Serve},
		{"pipeline", "Run on 1 thread", 1e6 / r.m["pipeline.t1_reads_per_s"], false},
		{"pipeline", fmt.Sprintf("Run on %d threads", r.nproc), r.aux["pipeline.tN_us_per_read"], false},
		{"seq", "ReadFastq", r.m["seq.fastq_us_per_read"], false},
		{"server", "aligner stage time behind the handler", r.aux["row.stage_us"], r.w.Serve},
		{"server", "parse (Server-Timing)", r.m["server.parse_ms"] * perReq, r.w.Serve},
		{"server", "admit (Server-Timing)", r.m["server.admit_ms"] * perReq, r.w.Serve},
		{"rescache", "cache classify (Server-Timing)", r.m["server.cache_ms"] * perReq, r.w.Serve},
		{"server", "Handler in process", r.aux["row.handler_us"], false},
		{"bwaclient", "loopback minus in-process handler", r.m["bwaclient.overhead_us_per_read"], r.w.Serve},
		{"gateway", "gateway:1 minus direct", r.m["gateway.overhead_us_per_read"], r.w.Serve},
		{"gateway", "via gateway:1", r.aux["row.gateway1_us"], false},
		{"gateway", "via gateway:2", r.aux["row.gateway2_us"], false},
	}
	r.res.Ledger = rows
	r.res.ObservedUSPerRead = 1e6 / r.m["pipeline.t1_reads_per_s"]
	if r.w.Serve {
		r.res.ObservedUSPerRead = r.aux["row.gateway1_us"]
	}
	sum := 0.0
	for _, row := range rows {
		if row.Leaf {
			sum += row.USPerRead
		}
	}
	r.res.Explained = sum / r.res.ObservedUSPerRead
	r.res.KernelShare = r.aux["row.stage_us"] / r.aux["row.gateway1_us"]
}
