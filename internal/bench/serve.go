package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/pkg/bwaclient"
	"repro/pkg/bwamem"
)

// replica is one alignment server the stack fronts: its handler and how to
// stop it.
type replica struct {
	handler http.Handler
	close   func() error
}

// listener is an http.Server on a loopback port, with the goroutine that
// serves it.
type listener struct {
	url  string
	hs   *http.Server
	done chan struct{} // closed when Serve has returned
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		// Serve returns ErrServerClosed after Shutdown; a listener failure
		// shows up as failed requests, which the run counts.
		_ = l.hs.Serve(ln)
	}()
	return l, nil
}

func (l *listener) stop(ctx context.Context) error {
	err := l.hs.Shutdown(ctx)
	<-l.done
	return err
}

// Stack is a serving topology on loopback: replicas behind their own
// listeners and, optionally, a gateway in front. Each workload builds a
// fresh one: reusing a stack lets its result cache fill from one
// measurement into the next, which drifts throughput by several percent.
type Stack struct {
	URL string // where clients send

	hc        *http.Client
	gw        *gateway.Gateway
	front     *listener // the gateway's listener, nil without one
	listeners []*listener
	replicas  []replica
}

// StartStack serves every replica on loopback, puts a gateway in front when
// viaGateway is set (otherwise there must be exactly one replica, addressed
// directly) and returns once readyz answers ready.
func StartStack(ctx context.Context, replicas []replica, viaGateway bool) (*Stack, error) {
	s := &Stack{replicas: replicas,
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}}
	var urls []string
	for _, r := range replicas {
		l, err := listen(r.handler)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.listeners = append(s.listeners, l)
		urls = append(urls, l.url)
	}
	s.URL = urls[0]
	if viaGateway {
		gw, err := gateway.New(gateway.Config{Replicas: urls})
		if err != nil {
			s.Close()
			return nil, err
		}
		s.gw = gw
		if s.front, err = listen(gw.Handler()); err != nil {
			s.Close()
			return nil, err
		}
		s.URL = s.front.url
	} else if len(replicas) != 1 {
		s.Close()
		return nil, fmt.Errorf("bench: %d replicas need a gateway", len(replicas))
	}
	cl, err := s.Client()
	if err != nil {
		s.Close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for {
		if rd, err := cl.Ready(ctx); err == nil && rd.Status == "ready" {
			return s, nil
		}
		select {
		case <-ctx.Done():
			s.Close()
			return nil, fmt.Errorf("bench: stack not ready: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// Client returns a bwaclient for the stack's front door. 429 retries are
// off: a rejected request is a failed request, not a slower one.
func (s *Stack) Client() (*bwaclient.Client, error) {
	return bwaclient.New(s.URL, bwaclient.WithHTTPClient(s.hc), bwaclient.WithRetries(0))
}

// Close stops the stack front to back and waits for every goroutine it
// started.
func (s *Stack) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	s.hc.CloseIdleConnections()
	if s.front != nil {
		errs = append(errs, s.front.stop(ctx))
	}
	if s.gw != nil {
		s.gw.Close()
		s.gw.CloseIdleConnections()
	}
	for _, l := range s.listeners {
		errs = append(errs, l.stop(ctx))
	}
	for _, r := range s.replicas {
		errs = append(errs, r.close())
	}
	return errors.Join(errs...)
}

// serveReplicas builds the end-to-end topology's replicas over one index:
// one worker thread each, result cache on.
func serveReplicas(idx *bwamem.Index, n int) ([]replica, error) {
	var reps []replica
	for i := 0; i < n; i++ {
		aln, err := bwamem.New(idx, bwamem.WithThreads(1))
		if err != nil {
			return nil, err
		}
		cfg := bwamem.DefaultServerConfig()
		cfg.Threads = 1
		srv, err := bwamem.NewServer(aln, cfg)
		if err != nil {
			return nil, err
		}
		reps = append(reps, replica{handler: srv.Handler(), close: srv.Close})
	}
	return reps, nil
}

// request is one timed request as its client saw it.
type request struct {
	done  time.Time // when the last SAM byte arrived
	ms    float64   // send to last byte
	reads int
}

// sampled is a request kept for the oracle comparison.
type sampled struct {
	reads []bwaclient.Read
	sam   []byte
}

// clientLog is what one closed-loop client gathered.
type clientLog struct {
	requests []request
	tally    Tally
	sent     int // reads sent
	failed   int // reads in requests that returned an error or unparsable SAM
	samples  []sampled
	err      error // first request error, for the log
	// exhausted is set when the client stopped early because its pool of
	// never-repeated reads ran out: it then offered less load than a
	// closed loop would have, and the run says so.
	exhausted bool
}

// oracleShare is the share of responses kept and compared byte for byte
// with the offline aligner after the timed window.
const oracleShare = 0.05

// drive runs one closed-loop client until the deadline or until its cold
// pool is used up: the next request leaves only after the previous response
// has fully arrived.
func drive(ctx context.Context, cl *bwaclient.Client, sched *ClientSchedule, deadline time.Time, sample *rand.Rand) clientLog {
	var log clientLog
	for time.Now().Before(deadline) {
		req, ok := sched.Next()
		if !ok {
			log.exhausted = true
			break
		}
		t0 := time.Now()
		sam, err := cl.AlignSAM(ctx, req)
		done := time.Now()
		log.sent += len(req)
		if err == nil {
			var t Tally
			if t, err = ScoreSAM(sam, false, 0); err == nil {
				log.tally.Add(t)
			}
		}
		if err != nil {
			log.failed += len(req)
			if log.err == nil {
				log.err = err
			}
			continue
		}
		log.requests = append(log.requests, request{done: done, ms: done.Sub(t0).Seconds() * 1e3, reads: len(req)})
		if sample != nil && sample.Float64() < oracleShare {
			log.samples = append(log.samples, sampled{reads: req, sam: sam})
		}
	}
	return log
}

// driveAll runs every client concurrently and waits for all of them.
func driveAll(ctx context.Context, st *Stack, clients []*ClientSchedule, deadline time.Time, sampleSeed int64, sampling bool) ([]clientLog, error) {
	conns := make([]*bwaclient.Client, len(clients))
	for c := range clients {
		var err error
		if conns[c], err = st.Client(); err != nil {
			return nil, err
		}
	}
	logs := make([]clientLog, len(clients))
	var wg sync.WaitGroup
	for c, sched := range clients {
		var sample *rand.Rand
		if sampling {
			sample = rand.New(rand.NewSource(subSeed(sampleSeed, 200+uint64(c))))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			logs[c] = drive(ctx, conns[c], sched, deadline, sample)
		}()
	}
	wg.Wait()
	return logs, nil
}

func runServe(ctx context.Context, w Workload, in *Inputs, o Options) (res *Result, err error) {
	nproc := runtime.NumCPU()
	var idx *bwamem.Index
	var oracle *bwamem.Aligner
	var st *Stack
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			oracle.Close()
			if err := st.Close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if idx, oracle, err = buildAligner(in.Fasta, nproc); err != nil {
			return nil, err
		}
		reps, err := serveReplicas(idx, 2)
		if err != nil {
			return nil, err
		}
		if st, err = StartStack(ctx, reps, true); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer oracle.Close()
	defer func() { err = errors.Join(err, st.Close()) }()

	// Warm-up: every hot read once, so the timed traffic is 90% hits from
	// its first request, then the timed mix itself for a tenth of the
	// window.
	for _, sched := range in.Clients {
		cl, err := st.Client()
		if err != nil {
			return nil, err
		}
		for _, req := range sched.HotRequests() {
			if _, err := cl.AlignSAM(ctx, req); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	warm := time.Duration(o.Seconds / 10 * float64(time.Second))
	if _, err := driveAll(ctx, st, in.Clients, time.Now().Add(warm), 0, false); err != nil {
		return nil, err
	}

	window := time.Duration(o.Seconds * float64(time.Second))
	start := time.Now()
	logs, err := driveAll(ctx, st, in.Clients, start.Add(window), o.Seed, true)
	if err != nil {
		return nil, err
	}

	res = &Result{Correct: true, Metrics: map[string]Summary{}}
	for _, sched := range in.Clients {
		res.InputDigest += fastqDigest(sched.Hot, sched.Cold)[:32]
	}
	var all []request
	var tally Tally
	for c, log := range logs {
		if log.err != nil {
			o.Logf("%s: client %d: %d reads in failed requests, first error: %v", w.Name, c, log.failed, log.err)
		}
		if log.exhausted {
			o.Logf("%s: client %d ran out of never-repeated reads before the window closed; reads_per_s is understated", w.Name, c)
			res.Noisy = append(res.Noisy, "reads_per_s")
		}
		all = append(all, log.requests...)
		tally.Add(log.tally)
		res.Attempted += log.sent
		res.Failed += log.failed
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("no request completed in %v", window)
	}
	good := res.Attempted - res.Failed // reads in requests that answered
	res.Failed += tally.Failed(good)
	res.Passes = len(all)

	// Responses kept during the window against the offline aligner.
	header := []byte(oracle.Header())
	for _, log := range logs {
		for _, s := range log.samples {
			want, err := oracle.AlignSAM(ctx, convertReads[bwamem.Read](s.reads))
			if err != nil {
				return nil, err
			}
			res.OracleSize++
			if !bytes.Equal(bytes.TrimPrefix(want, header), s.sam) {
				o.Logf("%s: a served response differs from offline AlignSAM (first read %s)", w.Name, s.reads[0].Name)
				res.Correct = false
				res.Failed += len(s.reads)
			}
		}
	}

	// Throughput per slice of the window, by completion time; a request
	// still in flight when the window closed falls outside every slice.
	sort.Slice(all, func(i, j int) bool { return all[i].done.Before(all[j].done) })
	slices := max(int(o.Seconds), minPasses)
	width := window / time.Duration(slices)
	perSlice := make([]float64, slices)
	ms := make([]float64, len(all))
	for i, r := range all {
		ms[i] = r.ms
		if k := int(r.done.Sub(start) / width); k < slices {
			perSlice[k] += float64(r.reads) / width.Seconds()
		}
	}

	res.Metrics["setup_s"] = summarize(setups, "s")
	res.Metrics["reads_per_s"] = summarize(perSlice, "1/s")
	res.Metrics["request_p50_ms"], res.Metrics["request_p99_ms"] = latencySummaries(ms)
	res.Metrics["correct_frac"] = exact(float64(tally.Correct)/float64(max(good, 1)), "frac")
	res.TailPct = tailLabel(len(ms))
	return res, nil
}
