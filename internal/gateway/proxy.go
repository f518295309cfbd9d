package gateway

import (
	"context"
	"errors"
	"fmt"
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

// partition is the slice of one request routed to one replica: the global
// input indices it covers (in input order) and their reads.
type partition struct {
	node    *replica
	key     uint64 // ring key of the partition's first read (failover walk)
	indices []int
	reads   []bwaclient.Read
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
	bound := int64(g.cfg.SpillFactor * float64(total+nReads) / float64(healthy))
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
		if g.cfg.SpillFactor > 0 && load+nReads <= bound {
			return r, !first, nil
		}
		if g.cfg.SpillFactor <= 0 && first {
			return r, false, nil // spilling disabled: always the first healthy node
		}
		if least == nil || load < least.inflight.Load()+extra[least] {
			least = r
		}
		first = false
	}
	return least, true, nil
}

// handleAlign serves POST /v1/align: parse and validate exactly as a
// replica would (shared helpers, so rejection envelopes are
// byte-identical), partition the reads by ring owner, scatter the
// partitions concurrently, and merge the sub-streams back in input order.
func (g *Gateway) handleAlign(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	defer func() { g.met.reqSingle.Observe(time.Since(t0)) }()
	span := obs.NewSpan(t0)
	asJSON, err := server.AlignBodyKind(r)
	if err != nil {
		g.met.badRequests.Add(1)
		g.apiError(w, r, http.StatusUnsupportedMediaType, bwaclient.CodeUnsupportedMediaType, err.Error())
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, g.bodyLimit)
	tParse := time.Now()
	reads, err := server.ParseSingleReads(r.Body, asJSON, g.cfg.MaxReadsPerRequest, g.cfg.MaxReadLen)
	if err != nil {
		g.rejectParse(w, r, err)
		return
	}
	span.Observe("parse", tParse)
	if !g.admit(w, r, len(reads)) {
		return
	}
	g.met.singleRequests.Add(1)
	g.met.readsTotal.Add(int64(len(reads)))

	tRoute := time.Now()
	parts, err := g.partitionSingle(reads)
	if err != nil {
		g.met.noUpstream.Add(1)
		g.apiError(w, r, http.StatusBadGateway, codeUpstreamUnavailable, err.Error())
		return
	}
	span.Observe("route", tRoute)

	wantHdr := server.WantHeader(r)
	w.Header().Set("Content-Type", "text/x-sam")
	m := ordered.New(w, len(reads), wantHdr)
	g.armServerTiming(w, m, span)
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for pi, p := range parts {
		wg.Add(1)
		go func(pi int, p *partition) {
			defer wg.Done()
			errs[pi] = g.runSinglePartition(r.Context(), p, m, wantHdr)
		}(pi, p)
	}
	wg.Wait()
	g.finishMerge(w, r, m, parts, errs)
}

// handleAlignPaired serves POST /v1/align/paired. A paired request is
// never split: insert-size statistics are computed per request ("each
// request is one paired-run unit"), so partial requests would produce
// different bytes. The whole request routes to the ring owner of its
// combined sequence key; a mid-stream replica failure replays the full
// request on another node and skips the pair groups already merged
// (paired output is deterministic per request, so the replay is
// byte-identical).
func (g *Gateway) handleAlignPaired(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	defer func() { g.met.reqPaired.Observe(time.Since(t0)) }()
	span := obs.NewSpan(t0)
	asJSON, err := server.AlignBodyKind(r)
	if err != nil {
		g.met.badRequests.Add(1)
		g.apiError(w, r, http.StatusUnsupportedMediaType, bwaclient.CodeUnsupportedMediaType, err.Error())
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, g.bodyLimit)
	tParse := time.Now()
	r1, r2, err := server.ParsePairedReads(r.Body, asJSON, g.cfg.MaxReadsPerRequest, g.cfg.MaxReadLen)
	if err != nil {
		g.rejectParse(w, r, err)
		return
	}
	span.Observe("parse", tParse)
	if !g.admit(w, r, len(r1)+len(r2)) {
		return
	}
	g.met.pairedRequests.Add(1)
	g.met.readsTotal.Add(int64(len(r1) + len(r2)))

	tRoute := time.Now()
	var scratch []byte
	keyU := uint64(fnvOffset)
	for i := range r1 {
		keyU = chainKey(&scratch, keyU, r1[i].Seq)
		keyU = chainKey(&scratch, keyU, r2[i].Seq)
	}
	p := &partition{key: keyU, reads: toClientReads(r1)}
	reads2 := toClientReads(r2)
	var spilled bool
	p.node, spilled, err = g.pickReplica(keyU, int64(len(r1)+len(r2)), nil, nil)
	if err != nil {
		g.met.noUpstream.Add(1)
		g.apiError(w, r, http.StatusBadGateway, codeUpstreamUnavailable, err.Error())
		return
	}
	if spilled {
		g.met.spills.Add(1)
		p.node.spilledTo.Add(1)
	}
	span.Observe("route", tRoute)

	wantHdr := server.WantHeader(r)
	w.Header().Set("Content-Type", "text/x-sam")
	m := ordered.New(w, len(r1), wantHdr)
	g.armServerTiming(w, m, span)
	perr := g.runPaired(r.Context(), p, reads2, m, wantHdr)
	g.finishMerge(w, r, m, []*partition{p}, []error{perr})
}

// chainKey folds one read's encoded sequence into a running FNV-64a state.
func chainKey(scratch *[]byte, h uint64, readSeq []byte) uint64 {
	if cap(*scratch) < len(readSeq) {
		*scratch = make([]byte, len(readSeq))
	}
	return fnv64a(h, seq.EncodeInto((*scratch)[:len(readSeq)], readSeq))
}

// admit runs the gateway-level request checks shared by both align
// handlers, writing the rejection itself when the request cannot proceed.
// The envelopes match a replica's byte for byte.
func (g *Gateway) admit(w http.ResponseWriter, r *http.Request, n int) bool {
	if n == 0 {
		g.met.badRequests.Add(1)
		g.apiError(w, r, http.StatusBadRequest, bwaclient.CodeBadRequest, "no reads in request")
		return false
	}
	if g.draining.Load() {
		g.met.rejectedDrain.Add(1)
		g.apiError(w, r, http.StatusServiceUnavailable, bwaclient.CodeDraining, "server is shutting down")
		return false
	}
	return true
}

// rejectParse writes the rejection for an unparseable or over-limit body,
// using the server's own classification so messages stay byte-identical.
func (g *Gateway) rejectParse(w http.ResponseWriter, r *http.Request, err error) {
	status, code, message := server.ClassifyParseError(err)
	if status == http.StatusRequestEntityTooLarge {
		g.met.rejectedLarge.Add(1)
	} else {
		g.met.badRequests.Add(1)
	}
	g.apiError(w, r, status, code, message)
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

// runSinglePartition streams one partition, retrying the undelivered
// remainder on the next healthy ring node when a replica fails mid-flight.
// Re-sending only the undelivered reads is sound because single-end output
// is a pure function of (option fingerprint, encoded sequence) per read —
// the same invariant the replicas' result cache relies on.
func (g *Gateway) runSinglePartition(ctx context.Context, p *partition, m *ordered.Writer, wantHdr bool) error {
	delivered := 0
	exclude := make(map[*replica]bool)
	node := p.node
	harvest := wantHdr && p.indices[0] == 0 // this partition owns the response header
	for attempt := 0; ; attempt++ {
		err := g.streamSingle(ctx, node, p, m, &delivered, harvest)
		if err == nil {
			return nil
		}
		if !g.noteUpstreamError(ctx, node, err) {
			return err
		}
		exclude[node] = true
		if attempt >= g.cfg.Retries {
			return err
		}
		next, _, perr := g.pickReplica(p.key, int64(len(p.reads)-delivered), nil, exclude)
		if perr != nil {
			return err
		}
		g.met.retries.Add(1)
		g.logf("gateway: retrying partition (%d/%d reads undelivered) on %s: %v",
			len(p.reads)-delivered, len(p.reads), next.url, err)
		node = next
	}
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
			g.reportDraining(node)
			return true
		}
		return false
	}
	g.reportFailure(node, err)
	return true
}

// streamSingle runs one upstream attempt for a single-end partition,
// merging record groups as they arrive and advancing *delivered past each
// one, so a retry resumes exactly where the stream died.
func (g *Gateway) streamSingle(ctx context.Context, node *replica, p *partition, m *ordered.Writer, delivered *int, harvest bool) error {
	todo := p.reads[*delivered:]
	node.inflight.Add(int64(len(todo)))
	defer node.inflight.Add(-int64(len(todo)))
	node.assigned.Add(1)
	t0 := time.Now()
	defer func() { node.upstream.Observe(time.Since(t0)) }()

	includeHeader := harvest && !m.HeaderSet()
	st, err := node.client.AlignWith(ctx, todo, bwaclient.AlignOptions{
		IncludeHeader: includeHeader, RequestID: requestID(ctx)})
	if err != nil {
		return err
	}
	defer st.Close()
	_, serr := splitGroups(st, 1, func(hdr []byte) {
		if includeHeader && len(hdr) > 0 {
			m.SetHeader(hdr)
		}
	}, func(group []byte) {
		m.Complete(p.indices[*delivered], group)
		*delivered++
	})
	if serr != nil {
		return serr
	}
	if *delivered != len(p.indices) {
		return fmt.Errorf("gateway: partition returned %d of %d record groups", *delivered, len(p.indices))
	}
	return nil
}

// runPaired streams a whole paired request to one replica, replaying the
// full request on another node after a failure and skipping the pair
// groups already merged.
func (g *Gateway) runPaired(ctx context.Context, p *partition, reads2 []bwaclient.Read, m *ordered.Writer, wantHdr bool) error {
	delivered := 0
	exclude := make(map[*replica]bool)
	node := p.node
	for attempt := 0; ; attempt++ {
		err := g.streamPaired(ctx, node, p.reads, reads2, m, &delivered, wantHdr)
		if err == nil {
			return nil
		}
		if !g.noteUpstreamError(ctx, node, err) {
			return err
		}
		exclude[node] = true
		if attempt >= g.cfg.Retries {
			return err
		}
		next, _, perr := g.pickReplica(p.key, int64(2*len(p.reads)), nil, exclude)
		if perr != nil {
			return err
		}
		g.met.retries.Add(1)
		g.logf("gateway: replaying paired request (%d/%d pairs undelivered) on %s: %v",
			len(p.reads)-delivered, len(p.reads), next.url, err)
		node = next
	}
}

// streamPaired runs one upstream attempt for a paired request: the full
// pair set every time (insert-size statistics are request-scoped), with
// the first *delivered groups skipped on replay.
func (g *Gateway) streamPaired(ctx context.Context, node *replica, r1, r2 []bwaclient.Read, m *ordered.Writer, delivered *int, wantHdr bool) error {
	node.inflight.Add(int64(2 * len(r1)))
	defer node.inflight.Add(int64(-2 * len(r1)))
	node.assigned.Add(1)
	t0 := time.Now()
	defer func() { node.upstream.Observe(time.Since(t0)) }()

	includeHeader := wantHdr && !m.HeaderSet()
	st, err := node.client.AlignPairedWith(ctx, r1, r2, bwaclient.AlignOptions{
		IncludeHeader: includeHeader, RequestID: requestID(ctx)})
	if err != nil {
		return err
	}
	defer st.Close()
	seen := 0
	_, serr := splitGroups(st, 2, func(hdr []byte) {
		if includeHeader && len(hdr) > 0 {
			m.SetHeader(hdr)
		}
	}, func(group []byte) {
		if seen == *delivered {
			m.Complete(seen, group)
			*delivered = seen + 1
		}
		seen++
	})
	if serr != nil {
		return serr
	}
	if *delivered != len(r1) {
		return fmt.Errorf("gateway: paired stream returned %d of %d pair groups", *delivered, len(r1))
	}
	return nil
}

// armServerTiming hooks the ordered writer's first body write to commit the
// Server-Timing header — the gateway-side phases (parse, route) plus the
// time-to-first-byte mark — at the last moment response headers are still
// mutable, exactly as a replica does.
func (g *Gateway) armServerTiming(w http.ResponseWriter, m *ordered.Writer, span *obs.Span) {
	hdr := w.Header()
	m.OnFirstWrite(func() {
		span.Mark("ttfb")
		g.met.ttfb.Observe(time.Since(span.Start()))
		hdr.Set("Server-Timing", obs.ServerTimingValue(span.Phases()))
	})
}

// finishMerge closes out a scattered request: retire the writer, then map
// any partition failure to the wire. When nothing was written yet, the
// failure of the earliest input position becomes the response envelope —
// an upstream *APIError passes through with the gateway's request ID, and
// transport-level exhaustion becomes 502 upstream_unavailable. Once bytes
// are out the stream cannot be repaired, so the connection is aborted
// (ErrAbortHandler) and the client observes a reset instead of a clean
// EOF on an incomplete record set.
func (g *Gateway) finishMerge(w http.ResponseWriter, r *http.Request, m *ordered.Writer, parts []*partition, errs []error) {
	writeErr := m.CloseAndWait()
	defer g.met.samBytes.Add(m.Written())
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
		g.logf("gateway: request %s failed before first byte: %v", requestID(r.Context()), ferr)
		var apiErr *bwaclient.APIError
		if errors.As(ferr, &apiErr) {
			if apiErr.Code == bwaclient.CodeOverloaded {
				w.Header().Set("Retry-After", "1")
			}
			g.apiError(w, r, apiErr.StatusCode, apiErr.Code, apiErr.Message)
			return
		}
		g.met.noUpstream.Add(1)
		g.apiError(w, r, http.StatusBadGateway, codeUpstreamUnavailable,
			fmt.Sprintf("upstream replicas unavailable: %v", ferr))
		return
	}
	if m.Started() && (m.Missing() > 0 || writeErr != nil || ferr != nil) {
		// Status and partial bytes are committed: abort the connection so the
		// truncation is an error at the client, never a clean EOF.
		panic(http.ErrAbortHandler)
	}
}
