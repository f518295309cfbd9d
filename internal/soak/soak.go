// Package soak is the sustained-load harness behind cmd/bwasoak: a
// seeded, mixed workload driven entirely through pkg/bwaclient against a
// live alignment server — in-process (pkg/bwamem.NewServer) for CI, N
// replicas behind an in-process gateway (bwaserve subprocesses under
// chaos), or any external /v1 target.
//
// While load runs it checks the invariants one request can't: every
// successful response byte-identical to the offline pipeline oracle,
// a typed error envelope on every rejection, no goroutine or heap growth
// across checkpoints, p99 end-to-end latency (from the server's own
// histogram buckets) under a configurable SLO, and clean drain at the
// end. The outcome is a bwago-soak/v2 Report; an empty Violations list is
// the pass signal.
package soak

import (
	"context"
	"flag"
	"fmt"
	"maps"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/pkg/bwaclient"
)

// Options are the knobs of one soak run. Flags binds them to a FlagSet
// with matching names; DefaultOptions is the CI-friendly baseline.
type Options struct {
	Duration        time.Duration // -duration: how long load runs
	Seed            int64         // -seed: workload determinism root
	Workers         int           // -workers: concurrent client workers
	GenomeBP        int           // -genome-bp: synthetic reference size
	GenomeSeed      int64         // -genome-seed: synthetic reference seed
	ReadLen         int           // -read-len: simulated read length
	Threads         int           // -threads: server worker threads (0 = NumCPU)
	BatchSize       int           // -batch: server batch size
	MaxInflight     int           // -max-inflight: server admission budget
	MaxRequestReads int           // -max-request-reads: server per-request cap
	MaxReadLen      int           // -max-read-len: server per-read length cap
	Target          string        // -target: external /v1 base URL (empty = own server)
	Topology        string        // -topology: "single" (default) or "gateway:N"
	Chaos           string        // -chaos: "" or "kill-restart" (needs gateway:N, N >= 2)
	ServerBin       string        // -server-bin: bwaserve binary for chaos replicas (empty = go build)
	SLOp99          time.Duration // -slo-p99: p99 latency SLO from server buckets (0 disables)
	Report          string        // -report: also write the JSON report to this file
}

// DefaultOptions returns the baseline configuration: 30s of mixed load
// from 8 workers against an in-process server on a 200kb synthetic
// reference.
func DefaultOptions() Options {
	return Options{
		Duration:        30 * time.Second,
		Seed:            1,
		Workers:         8,
		GenomeBP:        200000,
		GenomeSeed:      42,
		ReadLen:         101,
		BatchSize:       64,
		MaxInflight:     512,
		MaxRequestReads: 256,
		MaxReadLen:      65536,
		SLOp99:          5 * time.Second,
	}
}

// Flags registers every option on fs and returns the bound Options. The
// flag names here are the documented surface of cmd/bwasoak — the README
// table is drift-checked against this registration.
func Flags(fs *flag.FlagSet) *Options {
	o := DefaultOptions()
	fs.DurationVar(&o.Duration, "duration", o.Duration, "how long to sustain load")
	fs.Int64Var(&o.Seed, "seed", o.Seed, "workload seed (same seed, same request mix)")
	fs.IntVar(&o.Workers, "workers", o.Workers, "concurrent client workers")
	fs.IntVar(&o.GenomeBP, "genome-bp", o.GenomeBP, "synthetic reference size in bp")
	fs.Int64Var(&o.GenomeSeed, "genome-seed", o.GenomeSeed, "synthetic reference seed (must match an external target's)")
	fs.IntVar(&o.ReadLen, "read-len", o.ReadLen, "simulated read length")
	fs.IntVar(&o.Threads, "threads", o.Threads, "server worker threads (0 = NumCPU)")
	fs.IntVar(&o.BatchSize, "batch", o.BatchSize, "server reads per batch")
	fs.IntVar(&o.MaxInflight, "max-inflight", o.MaxInflight, "server admission budget in reads (429 beyond)")
	fs.IntVar(&o.MaxRequestReads, "max-request-reads", o.MaxRequestReads, "server per-request read cap (the oversize op sends one more)")
	fs.IntVar(&o.MaxReadLen, "max-read-len", o.MaxReadLen, "server per-read length cap (the malformed op sends one longer)")
	fs.StringVar(&o.Target, "target", o.Target, "external server base URL instead of an in-process server")
	fs.StringVar(&o.Topology, "topology", o.Topology, "target topology: single (default) or gateway:N — N replicas behind an in-process bwagate")
	fs.StringVar(&o.Chaos, "chaos", o.Chaos, "chaos mode: kill-restart (needs -topology gateway:N, N >= 2; replicas run as bwaserve subprocesses)")
	fs.StringVar(&o.ServerBin, "server-bin", o.ServerBin, "bwaserve binary for chaos replicas (empty: go build ./cmd/bwaserve)")
	fs.DurationVar(&o.SLOp99, "slo-p99", o.SLOp99, "p99 request-latency SLO checked against the server's histogram buckets (0 disables)")
	fs.StringVar(&o.Report, "report", o.Report, "also write the JSON report to this file")
	return &o
}

// gatewayReplicas parses -topology: 0 for the default single-server
// topology, N for "gateway:N".
func (o *Options) gatewayReplicas() (int, error) {
	switch {
	case o.Topology == "" || o.Topology == "single":
		return 0, nil
	case strings.HasPrefix(o.Topology, "gateway:"):
		n, err := strconv.Atoi(strings.TrimPrefix(o.Topology, "gateway:"))
		if err != nil || n < 1 {
			return 0, fmt.Errorf("soak: -topology gateway:N needs a positive replica count, got %q", o.Topology)
		}
		return n, nil
	default:
		return 0, fmt.Errorf("soak: unknown -topology %q (want single or gateway:N)", o.Topology)
	}
}

func (o *Options) validate() error {
	if o.Duration <= 0 {
		return fmt.Errorf("soak: -duration must be positive")
	}
	if o.Workers <= 0 {
		return fmt.Errorf("soak: -workers must be positive")
	}
	if o.Chaos != "" && o.Chaos != "kill-restart" {
		return fmt.Errorf("soak: unknown -chaos mode %q (want kill-restart)", o.Chaos)
	}
	gwN, err := o.gatewayReplicas()
	if err != nil {
		return err
	}
	if gwN > 0 && o.Target != "" {
		return fmt.Errorf("soak: -topology gateway stands up its own replicas; it cannot be combined with -target")
	}
	if o.Chaos != "" && gwN < 2 {
		return fmt.Errorf("soak: -chaos kills replicas behind the gateway; it needs -topology gateway:N with N >= 2")
	}
	if o.MaxRequestReads > o.MaxInflight {
		return fmt.Errorf("soak: -max-request-reads %d exceeds -max-inflight %d (every request would shed)",
			o.MaxRequestReads, o.MaxInflight)
	}
	return nil
}

// opTimeout bounds any single operation so a wedged server fails the run
// instead of hanging it.
const opTimeout = 60 * time.Second

// failures counts the ways operations did not succeed; phases and ops
// both keep one.
type failures struct {
	transport atomic.Int64
	cancelled atomic.Int64

	mu         sync.Mutex
	rejections map[string]int64 // APIError code -> count
}

func (f *failures) reject(code string) {
	f.mu.Lock()
	if f.rejections == nil {
		f.rejections = make(map[string]int64)
	}
	f.rejections[code]++
	f.mu.Unlock()
}

// rejected returns a copy of the rejection counts, nil when there are none.
func (f *failures) rejected() map[string]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return maps.Clone(f.rejections)
}

// phaseAcc accumulates one phase of the load timeline.
type phaseAcc struct {
	name     string
	start    time.Time
	duration time.Duration // set when the phase closes

	requests atomic.Int64
	reads    atomic.Int64
	samBytes atomic.Int64
	failures

	lat obs.Histogram
}

// opAcc accumulates one workload operation across the run.
type opAcc struct {
	attempts atomic.Int64
	ok       atomic.Int64
	failures
}

// maxViolationsPerKind bounds how many instances of one invariant kind
// are recorded verbatim: under a persistent fault every request violates,
// and ten thousand copies of the same line help no one.
const maxViolationsPerKind = 3

type runner struct {
	o      *Options
	w      *workload
	client *bwaclient.Client
	tr     *http.Transport
	logf   func(string, ...any)

	phasePrefix string // "gateway-" under the gateway topology
	phaseMu     sync.Mutex
	phases      []*phaseAcc
	cur         atomic.Pointer[phaseAcc]

	ops map[string]*opAcc

	vioMu    sync.Mutex
	vioCount map[string]int
	vios     []string

	samples     int // runtime checkpoints taken: baseline and final
	baseline    RuntimeSample
	finalClient RuntimeSample
	srvBase     *RuntimeSample
	srvFinal    *RuntimeSample
}

func (r *runner) violate(kind, format string, args ...any) {
	r.vioMu.Lock()
	defer r.vioMu.Unlock()
	r.vioCount[kind]++
	if r.vioCount[kind] <= maxViolationsPerKind {
		r.vios = append(r.vios, kind+": "+fmt.Sprintf(format, args...))
	}
}

func (r *runner) beginPhase(name string) {
	r.phaseMu.Lock()
	defer r.phaseMu.Unlock()
	now := time.Now()
	if cur := r.cur.Load(); cur != nil {
		cur.duration = now.Sub(cur.start)
	}
	p := &phaseAcc{name: r.phasePrefix + name, start: now}
	r.phases = append(r.phases, p)
	r.cur.Store(p)
}

func (r *runner) closePhases() {
	r.phaseMu.Lock()
	defer r.phaseMu.Unlock()
	if cur := r.cur.Load(); cur != nil && cur.duration == 0 {
		cur.duration = time.Since(cur.start)
	}
}

// Run executes one soak: build the deterministic workload, stand up (or
// dial) the target, sustain the mix for o.Duration while checking
// invariants, then drain and report. The returned error covers setup
// failures only — invariant failures land in Report.Violations so the
// caller still gets the full report.
func Run(ctx context.Context, o Options, logf func(string, ...any)) (*Report, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	if o.Threads <= 0 {
		o.Threads = runtime.NumCPU()
	}

	logf("soak: building workload (genome %d bp, seed %d)", o.GenomeBP, o.Seed)
	w, err := buildWorkload(&o)
	if err != nil {
		return nil, err
	}

	// Stand up the target.
	gwN, _ := o.gatewayReplicas()
	var (
		baseURL string
		local   *localServer
		gate    *gatewayTarget
	)
	switch {
	case o.Target != "":
		baseURL = o.Target
	case gwN > 0:
		gate, err = startGatewayTarget(ctx, &o, gwN, w.idx, logf)
		if err != nil {
			return nil, err
		}
		defer gate.stop()
		baseURL = gate.baseURL
	default:
		local, err = startLocalServer(&o, w.idx, logf)
		if err != nil {
			return nil, err
		}
		defer local.stop()
		baseURL = local.baseURL
	}

	// One client, one transport: wide enough idle pool that workers reuse
	// connections, and ours to close before the leak check.
	tr := &http.Transport{MaxIdleConns: 4 * o.Workers, MaxIdleConnsPerHost: 4 * o.Workers}
	client, err := bwaclient.New(baseURL, bwaclient.WithHTTPClient(&http.Client{Transport: tr}))
	if err != nil {
		return nil, err
	}

	r := &runner{
		o: &o, w: w, client: client, tr: tr, logf: logf,
		ops:      make(map[string]*opAcc),
		vioCount: make(map[string]int),
	}
	if gate != nil {
		r.phasePrefix = "gateway-"
	}
	for _, op := range []string{opSingle, opPaired, opSlow, opCancel, opOversize, opMalformed, opHealth, opMetrics} {
		r.ops[op] = &opAcc{}
	}

	// Warm up (establish connections, fault early on a dead target) and
	// take the leak baseline before load starts.
	warmCtx, warmCancel := context.WithTimeout(ctx, opTimeout)
	_, err = client.AlignSAM(warmCtx, w.singles[0].reads)
	warmCancel()
	if err != nil {
		return nil, fmt.Errorf("soak: warm-up request against %s: %w", baseURL, err)
	}
	r.takeBaseline(ctx)

	// Load.
	deadline := time.Now().Add(o.Duration)
	loadCtx, cancelLoad := context.WithDeadline(ctx, deadline)
	defer cancelLoad()
	r.beginPhase("steady")
	logf("soak: %d workers for %s against %s (chaos=%q)", o.Workers, o.Duration, baseURL, o.Chaos)

	var wg sync.WaitGroup
	for i := 0; i < o.Workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r.worker(loadCtx, id)
		}(i)
	}
	// Chaos controller; validate admits chaos only with a gateway tier.
	if o.Chaos != "" {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.chaos(loadCtx, gate.children, deadline)
		}()
	}
	wg.Wait()
	r.closePhases()
	logf("soak: load complete (%d phases)", len(r.phases))

	rep := &Report{
		Config: ConfigInfo{
			DurationSeconds: o.Duration.Seconds(), Seed: o.Seed, Workers: o.Workers,
			GenomeBP: o.GenomeBP, GenomeSeed: o.GenomeSeed, ReadLen: o.ReadLen,
			Threads: o.Threads, BatchSize: o.BatchSize, MaxInflight: o.MaxInflight,
			MaxRequestReads: o.MaxRequestReads, Target: o.Target, Topology: o.Topology,
			Chaos: o.Chaos, SLOp99Seconds: o.SLOp99.Seconds(),
		},
	}

	// Post-load invariants: server-side latency SLO and runtime growth,
	// read from /v1/metrics exactly as a dashboard would. The gateway tier
	// first drops its idle upstream pool — those transport goroutines are
	// bounded by configuration, not leaked, and would otherwise dominate
	// the resting-footprint sample.
	if gate != nil {
		gate.gw.CloseIdleConnections()
	}
	r.finishServerChecks(ctx, rep)

	// Clean drain.
	switch {
	case local != nil:
		if err := local.drain(); err != nil {
			r.violate("drain", "in-process server: %v", err)
		}
	case gate != nil:
		if err := gate.drain(); err != nil {
			r.violate("drain", "gateway tier: %v", err)
		}
	}

	// Client-side leak check: with the load gone, our own idle connections
	// closed, and (in-process) the server drained, the process must be
	// back to its baseline footprint.
	r.tr.CloseIdleConnections()
	r.checkClientLeaks()

	r.fill(rep)
	return rep, nil
}

// The soak harness reads the target's /v1/metrics the way a dashboard
// would, through obs's exposition reader: histogram buckets for quantiles,
// gauges for runtime growth, so the invariants it asserts are exactly the
// numbers an operator sees.

// metricPrefixes are the exposition prefixes a soak target can answer
// with: bwaserve_* from a replica, bwagate_* when the target is the
// gateway tier. Both expose the same histogram and runtime-gauge shapes.
var metricPrefixes = []string{"bwaserve", "bwagate"}

// scrape fetches and parses the target's /v1/metrics.
func (r *runner) scrape(ctx context.Context) (obs.Metrics, error) {
	mctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	text, err := r.client.Metrics(mctx)
	if err != nil {
		return nil, err
	}
	return obs.ParseMetrics(text)
}

// serverRuntimeSample reads the target's runtime gauges; ok is false when
// the target does not expose them (e.g. a stub).
func serverRuntimeSample(m obs.Metrics) (RuntimeSample, bool) {
	for _, prefix := range metricPrefixes {
		g, okG := m.Value(prefix + "_go_goroutines")
		h, okH := m.Value(prefix + "_go_heap_alloc_bytes")
		if okG && okH {
			return RuntimeSample{Goroutines: int(g), HeapAllocBytes: h}, true
		}
	}
	return RuntimeSample{}, false
}

// requestLatency summarizes the target's request_seconds histograms for
// the align request kinds.
func requestLatency(m obs.Metrics) map[string]Quantiles {
	out := make(map[string]Quantiles)
	for _, kind := range []string{"single", "paired"} {
		for _, prefix := range metricPrefixes {
			if b := m.Buckets(prefix+"_request_seconds", "kind", kind); b != nil {
				out[kind] = quantiles(b.Total, b.Quantile)
				break
			}
		}
	}
	return out
}

// quantiles summarizes a latency distribution of n observations.
func quantiles(n int64, q func(float64) float64) Quantiles {
	return Quantiles{Count: n, P50: q(0.50), P90: q(0.90), P99: q(0.99)}
}

// takeBaseline records the pre-load runtime footprint, client and server.
func (r *runner) takeBaseline(ctx context.Context) {
	r.baseline = clientRuntimeSample()
	r.samples++
	if m, err := r.scrape(ctx); err == nil {
		if s, ok := serverRuntimeSample(m); ok {
			r.srvBase = &s
		}
	}
}

// clientRuntimeSample reads the harness's own footprint through the
// reader behind the server's bwaserve_go_* gauges, without stopping the
// world.
func clientRuntimeSample() RuntimeSample {
	rs := obs.ReadRuntime()
	return RuntimeSample{Goroutines: int(rs.Goroutines), HeapAllocBytes: float64(rs.HeapAllocBytes)}
}

// Leak slack: shutting-down goroutines and transport internals wobble by
// a few; growth beyond this after the grace window is a leak, not noise.
const (
	goroutineSlack = 16
	heapSlackBytes = 64 << 20
)

func (r *runner) checkClientLeaks() {
	var last RuntimeSample
	for i := 0; i < 25; i++ {
		runtime.GC()
		last = clientRuntimeSample()
		if last.Goroutines <= r.baseline.Goroutines+goroutineSlack &&
			last.HeapAllocBytes <= 2*r.baseline.HeapAllocBytes+heapSlackBytes {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	if last.Goroutines > r.baseline.Goroutines+goroutineSlack {
		r.violate("goroutine-growth", "client process: %d goroutines after load, baseline %d (slack %d)",
			last.Goroutines, r.baseline.Goroutines, goroutineSlack)
	}
	if last.HeapAllocBytes > 2*r.baseline.HeapAllocBytes+heapSlackBytes {
		r.violate("heap-growth", "client process: %.0f heap bytes after load, baseline %.0f",
			last.HeapAllocBytes, r.baseline.HeapAllocBytes)
	}
	r.samples++
	r.finalClient = last
}

// finishServerChecks reads the target's metrics one last time: request
// latency quantiles for the report and the SLO, runtime gauges for the
// server-side leak check. The front door is never a chaos victim, so the
// fetch is not retried.
func (r *runner) finishServerChecks(ctx context.Context, rep *Report) {
	m, err := r.scrape(ctx)
	if err != nil {
		r.violate("metrics-unreachable", "final /v1/metrics fetch: %v", err)
		return
	}
	rep.ServerLatency = requestLatency(m)
	if r.o.SLOp99 > 0 {
		slo := r.o.SLOp99.Seconds()
		kinds := make([]string, 0, len(rep.ServerLatency))
		for kind := range rep.ServerLatency {
			kinds = append(kinds, kind)
		}
		sort.Strings(kinds)
		for _, kind := range kinds {
			q := rep.ServerLatency[kind]
			if q.Count > 0 && q.P99 > slo {
				r.violate("p99-slo", "kind=%s p99=%.4fs exceeds SLO %.4fs (n=%d)", kind, q.P99, slo, q.Count)
			}
		}
	}
	s, okSample := serverRuntimeSample(m)
	if okSample && r.srvBase != nil {
		// Connection and transport goroutines wind down asynchronously
		// once load stops; re-sample briefly before calling growth a leak.
		for i := 0; i < 10 && s.Goroutines > r.srvBase.Goroutines+2*goroutineSlack; i++ {
			time.Sleep(200 * time.Millisecond)
			again, merr := r.scrape(ctx)
			if merr != nil {
				break
			}
			if s2, ok2 := serverRuntimeSample(again); ok2 {
				s = s2
			}
		}
	}
	if okSample {
		r.srvFinal = &s
		if r.srvBase != nil {
			if s.Goroutines > r.srvBase.Goroutines+2*goroutineSlack {
				r.violate("server-goroutine-growth", "%d goroutines after load, baseline %d",
					s.Goroutines, r.srvBase.Goroutines)
			}
			if s.HeapAllocBytes > 3*r.srvBase.HeapAllocBytes+2*heapSlackBytes {
				r.violate("server-heap-growth", "%.0f heap bytes after load, baseline %.0f",
					s.HeapAllocBytes, r.srvBase.HeapAllocBytes)
			}
		}
	}
}

// fill converts the accumulators into the report shape.
func (r *runner) fill(rep *Report) {
	for _, p := range r.phases {
		secs := p.duration.Seconds()
		ps := &PhaseStats{
			Name: p.name, Seconds: secs,
			Requests: p.requests.Load(), Reads: p.reads.Load(), SAMBytes: p.samBytes.Load(),
			TransportErrors: p.transport.Load(), Cancelled: p.cancelled.Load(),
			Rejections: p.rejected(), Latency: quantiles(p.lat.Count(), p.lat.Quantile),
		}
		if secs > 0 {
			ps.ReadsPerSec = float64(ps.Reads) / secs
		}
		rep.Phases = append(rep.Phases, ps)
	}
	rep.Ops = make(map[string]*OpStats, len(r.ops))
	for name, a := range r.ops {
		rep.Ops[name] = &OpStats{
			Attempts: a.attempts.Load(), OK: a.ok.Load(),
			TransportErrors: a.transport.Load(), Cancelled: a.cancelled.Load(), Rejections: a.rejected(),
		}
	}
	rep.Runtime = RuntimeStats{
		Samples: r.samples,
		First:   r.baseline,
		Last:    r.finalClient,
		Server:  r.srvBase,
		ServerE: r.srvFinal,
	}
	rep.Violations = append(rep.Violations, r.vios...)
	if rep.Violations == nil {
		rep.Violations = []string{}
	}
}
