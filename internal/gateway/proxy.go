package gateway

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/ordered"
	"repro/internal/seq"
	"repro/internal/server"
	"repro/pkg/bwaclient"
)

// errNoUpstream means no healthy replica was available to take an
// assignment; mapped to 502 upstream_unavailable.
var errNoUpstream = errors.New("gateway: no healthy upstream replica")

// partition is the slice of one request routed to one replica: the output
// slots of its record groups (in input order) and their reads. A single-end
// partition holds one read per group; a paired one is the whole request,
// end 2 in reads2, one pair per group.
type partition struct {
	node    *replica
	key     uint64 // ring key of the partition's first read (failover walk)
	indices []int
	reads   []bwaclient.Read
	reads2  []bwaclient.Read // nil for single-end
}

// pickReplica chooses the replica for a partition keyed by key and
// carrying nReads reads: the first healthy node in ring-walk order whose
// in-flight load stays within the bounded-load bound, falling back to the
// least-loaded healthy node when everyone is over it (the bound shapes
// load, replica admission enforces it). extra holds this request's
// not-yet-dispatched tentative assignments so one scatter pass
// self-balances; exclude removes nodes that already failed this
// partition. spilled reports the choice was not the first healthy
// candidate.
func (g *Gateway) pickReplica(key uint64, nReads int64, extra map[*replica]int64, exclude map[*replica]bool) (node *replica, spilled bool, err error) {
	var total int64
	healthy := 0
	for _, r := range g.replicas {
		if r.State() == stateUp && !exclude[r] {
			healthy++
			total += r.inflight.Load() + extra[r]
		}
	}
	if healthy == 0 {
		return nil, false, errNoUpstream
	}
	bound := int64(spillFactor * float64(total+nReads) / float64(healthy))
	if bound < nReads {
		bound = nReads // an idle fleet must accept the first assignment
	}
	var least *replica
	first := true
	for _, idx := range g.ring.walk(key) {
		r := g.replicas[idx]
		if r.State() != stateUp || exclude[r] {
			continue
		}
		load := r.inflight.Load() + extra[r]
		if load+nReads <= bound {
			return r, !first, nil
		}
		if least == nil || load < least.inflight.Load()+extra[least] {
			least = r
		}
		first = false
	}
	return least, true, nil
}

// handleAlign serves POST /v1/align: the shared intake parses and
// validates exactly as a replica does (so rejection envelopes are
// byte-identical), then the reads are partitioned by ring owner, scattered
// concurrently, and the sub-streams merged back in input order.
func (g *Gateway) handleAlign(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	defer func() { g.met.reqSingle.Observe(time.Since(t0)) }()
	span := obs.NewSpan(t0)
	reads, _, ok := g.met.Intake(w, r, false, g.cfg.MaxReadsPerRequest, g.cfg.MaxReadLen, span, g.admit)
	if !ok {
		return
	}
	defer g.adm.Release(len(reads))
	tRoute := time.Now()
	parts, err := g.partitionSingle(reads)
	if err != nil {
		g.rejectNoUpstream(w, r, err.Error())
		return
	}
	span.Observe("route", tRoute)
	g.scatter(w, r, span, len(reads), parts)
}

// handleAlignPaired serves POST /v1/align/paired. A paired request is
// never split: insert-size statistics are computed per request ("each
// request is one paired-run unit"), so partial requests would produce
// different bytes. The whole request routes to the ring owner of its
// combined sequence key.
func (g *Gateway) handleAlignPaired(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	defer func() { g.met.reqPaired.Observe(time.Since(t0)) }()
	span := obs.NewSpan(t0)
	r1, r2, ok := g.met.Intake(w, r, true, g.cfg.MaxReadsPerRequest, g.cfg.MaxReadLen, span, g.admit)
	if !ok {
		return
	}
	defer g.adm.Release(len(r1) + len(r2))
	tRoute := time.Now()
	var scratch []byte
	keyU := uint64(fnvOffset)
	for i := range r1 {
		keyU = chainKey(&scratch, keyU, r1[i].Seq)
		keyU = chainKey(&scratch, keyU, r2[i].Seq)
	}
	node, spilled, err := g.pickReplica(keyU, int64(len(r1)+len(r2)), nil, nil)
	if err != nil {
		g.rejectNoUpstream(w, r, err.Error())
		return
	}
	if spilled {
		g.met.spills.Add(1)
		node.spilledTo.Add(1)
	}
	p := &partition{node: node, key: keyU, indices: make([]int, len(r1)), reads: toClientReads(r1), reads2: toClientReads(r2)}
	for i := range p.indices {
		p.indices[i] = i
	}
	span.Observe("route", tRoute)
	g.scatter(w, r, span, len(r1), []*partition{p})
}

// chainKey folds one read's encoded sequence into a running FNV-64a state.
func chainKey(scratch *[]byte, h uint64, readSeq []byte) uint64 {
	if cap(*scratch) < len(readSeq) {
		*scratch = make([]byte, len(readSeq))
	}
	return fnv64a(h, seq.EncodeInto((*scratch)[:len(readSeq)], readSeq))
}

// admit is the gateway's admission step of the shared intake: it charges
// n reads to the drain gate, whose budget is unbounded, so only a draining
// gateway refuses, with the replica's draining envelope.
func (g *Gateway) admit(w http.ResponseWriter, r *http.Request, n int) bool {
	if g.adm.TryAcquire(n) != nil {
		g.met.RejectDraining(w, r)
		return false
	}
	return true
}

// rejectNoUpstream answers a request the gateway cannot route: 502
// upstream_unavailable.
func (g *Gateway) rejectNoUpstream(w http.ResponseWriter, r *http.Request, message string) {
	g.met.noUpstream.Add(1)
	server.WriteError(w, r, http.StatusBadGateway, codeUpstreamUnavailable, message)
}

// toClientReads converts parsed reads to the client's wire type.
func toClientReads(reads []seq.Read) []bwaclient.Read {
	out := make([]bwaclient.Read, len(reads))
	for i, rd := range reads {
		out[i] = bwaclient.Read{Name: rd.Name, Seq: rd.Seq, Qual: rd.Qual}
	}
	return out
}

// partitionSingle assigns each read to a replica by ring key (with
// bounded-load spill) and groups the assignments into per-replica
// partitions, preserving input order within each partition.
func (g *Gateway) partitionSingle(reads []seq.Read) ([]*partition, error) {
	var scratch []byte
	extra := make(map[*replica]int64, len(g.replicas))
	byNode := make(map[*replica]*partition, len(g.replicas))
	var parts []*partition
	for i := range reads {
		key := readKey(&scratch, reads[i].Seq)
		node, spilled, err := g.pickReplica(key, 1, extra, nil)
		if err != nil {
			return nil, err
		}
		if spilled {
			g.met.spills.Add(1)
			node.spilledTo.Add(1)
		}
		extra[node]++
		p := byNode[node]
		if p == nil {
			p = &partition{node: node, key: key}
			byNode[node] = p
			parts = append(parts, p)
		}
		p.indices = append(p.indices, i)
		p.reads = append(p.reads, bwaclient.Read{Name: reads[i].Name, Seq: reads[i].Seq, Qual: reads[i].Qual})
	}
	return parts, nil
}

// run streams one partition, retrying on the next healthy ring node when a
// replica fails mid-flight and resuming after the record groups already
// merged. A single-end retry re-sends only the undelivered reads, which is
// sound because single-end output is a pure function of (option
// fingerprint, encoded sequence) per read — the same invariant the
// replicas' result cache relies on. A paired retry replays the whole
// request (insert-size statistics are request-scoped; paired output is
// deterministic per request, so the replay is byte-identical) and skips
// the pair groups already merged.
func (g *Gateway) run(ctx context.Context, p *partition, m *ordered.Writer, wantHdr bool) error {
	delivered := 0
	exclude := make(map[*replica]bool)
	node := p.node
	for attempt := 0; ; attempt++ {
		err := g.stream(ctx, node, p, m, &delivered, wantHdr)
		if err == nil {
			return nil
		}
		if !g.noteUpstreamError(ctx, node, err) {
			return err
		}
		exclude[node] = true
		if attempt >= partitionRetries {
			return err
		}
		next, _, perr := g.pickReplica(p.key, p.load(delivered), nil, exclude)
		if perr != nil {
			return err
		}
		g.met.retries.Add(1)
		g.logEvent(ctx, slog.LevelWarn, "partition retry", slog.String("replica", next.url),
			slog.Int("undelivered", len(p.indices)-delivered), slog.Int("groups", len(p.indices)),
			slog.String("err", err.Error()))
		node = next
	}
}

// load is the read count an attempt sends once delivered groups are
// merged: the undelivered reads single-end, the whole request paired.
func (p *partition) load(delivered int) int64 {
	if p.reads2 != nil {
		return int64(len(p.reads) + len(p.reads2))
	}
	return int64(len(p.reads) - delivered)
}

// noteUpstreamError applies passive health detection to a failed upstream
// call and reports whether the failure is retryable on another replica:
// transport errors and truncations mark the replica down and retry;
// draining envelopes mark it draining and retry; any other typed envelope
// (bad_request, overloaded after the client's own retries, ...) means the
// replica is healthy and the response must pass through. Context
// cancellation is the client's doing and never retried.
func (g *Gateway) noteUpstreamError(ctx context.Context, node *replica, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	var apiErr *bwaclient.APIError
	if errors.As(err, &apiErr) {
		if apiErr.Code == bwaclient.CodeDraining {
			g.reportDraining(ctx, node)
			return true
		}
		return false
	}
	g.reportFailure(ctx, node, err)
	return true
}

// stream runs one upstream attempt for a partition, merging record groups
// as they arrive and advancing *delivered past each one, so a retry
// resumes exactly where the stream died. The partition that owns output
// slot 0 asks for the SAM header until one has been merged.
func (g *Gateway) stream(ctx context.Context, node *replica, p *partition, m *ordered.Writer, delivered *int, wantHdr bool) error {
	load := p.load(*delivered)
	node.inflight.Add(load)
	defer node.inflight.Add(-load)
	node.assigned.Add(1)
	t0 := time.Now()
	defer func() { node.upstream.Observe(time.Since(t0)) }()

	includeHeader := wantHdr && p.indices[0] == 0 && !m.HeaderSet()
	opts := bwaclient.AlignOptions{IncludeHeader: includeHeader, RequestID: server.RequestID(ctx)}
	var st *bwaclient.SAMStream
	var err error
	quota, next := 1, *delivered // next: the group the upstream stream starts at
	if p.reads2 != nil {
		quota, next = 2, 0
		st, err = node.client.AlignPairedWith(ctx, p.reads, p.reads2, opts)
	} else {
		st, err = node.client.AlignWith(ctx, p.reads[*delivered:], opts)
	}
	if err != nil {
		return err
	}
	defer st.Close()
	_, serr := splitGroups(st, quota, func(hdr []byte) {
		if includeHeader && len(hdr) > 0 {
			m.SetHeader(hdr)
		}
	}, func(group []byte) {
		if next == *delivered {
			m.Complete(p.indices[next], group)
			*delivered++
		}
		next++
	})
	if serr != nil {
		return serr
	}
	if *delivered != len(p.indices) {
		return fmt.Errorf("gateway: partition returned %d of %d record groups", *delivered, len(p.indices))
	}
	return nil
}

// scatter streams the partitions concurrently into one ordered response of
// n record groups and maps any partition failure to the wire. When nothing
// was written yet, a client that went away gets no response (an INFO
// "request cancelled" event, the replica's name for it); otherwise the
// failure of the earliest input position becomes the response envelope — an upstream *APIError passes through with the
// gateway's request ID, and transport-level exhaustion becomes 502
// upstream_unavailable. Once bytes are out the stream cannot be repaired,
// so the connection is aborted (ErrAbortHandler) and the client observes a
// reset instead of a clean EOF on an incomplete record set.
func (g *Gateway) scatter(w http.ResponseWriter, r *http.Request, span *obs.Span, n int, parts []*partition) {
	wantHdr := server.WantHeader(r)
	m := server.NewSAMStream(w, r, n, span, &g.met.ttfb)
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for pi, p := range parts {
		wg.Add(1)
		go func(pi int, p *partition) {
			defer wg.Done()
			errs[pi] = g.run(r.Context(), p, m, wantHdr)
		}(pi, p)
	}
	wg.Wait()

	writeErr := m.CloseAndWait()
	defer g.met.SAMBytes.Add(m.Written())
	var ferr error
	first := -1
	for i, err := range errs {
		if err == nil {
			continue
		}
		if first < 0 || parts[i].indices[0] < parts[first].indices[0] {
			first, ferr = i, err
		}
	}
	if ferr == nil && writeErr == nil {
		m.EnsureHeader()
		return
	}
	if ferr != nil && !m.Started() {
		if cerr := r.Context().Err(); cerr != nil {
			g.logEvent(r.Context(), slog.LevelInfo, "request cancelled", slog.String("err", cerr.Error()))
			return
		}
		g.logEvent(r.Context(), slog.LevelWarn, "request failed before first byte", slog.String("err", ferr.Error()))
		var apiErr *bwaclient.APIError
		if errors.As(ferr, &apiErr) {
			if apiErr.Code == bwaclient.CodeOverloaded {
				w.Header().Set("Retry-After", "1")
			}
			server.WriteError(w, r, apiErr.StatusCode, apiErr.Code, apiErr.Message)
			return
		}
		g.rejectNoUpstream(w, r, fmt.Sprintf("upstream replicas unavailable: %v", ferr))
		return
	}
	if m.Started() && (m.Missing() > 0 || writeErr != nil || ferr != nil) {
		// Status and partial bytes are committed: abort the connection so the
		// truncation is an error at the client, never a clean EOF.
		panic(http.ErrAbortHandler)
	}
}
