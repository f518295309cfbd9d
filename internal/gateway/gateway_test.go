package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/seq"
	"repro/internal/server"
	"repro/internal/testutil"
	"repro/pkg/bwaclient"
)

// Shared fixture: one synthetic reference + aligner + simulated reads,
// built once (index construction dominates test time). Every replica in
// every fleet serves this aligner, exactly like a production fleet built
// from the same reference image.
var fx struct {
	once   sync.Once
	aln    *core.Aligner
	reads  []seq.Read
	r1, r2 []seq.Read
	err    error
}

func fixture(t testing.TB) {
	t.Helper()
	fx.once.Do(func() {
		ref, err := datasets.Genome(datasets.DefaultGenome("chr1", 60000, 21))
		if err != nil {
			fx.err = err
			return
		}
		fx.aln, err = core.NewAligner(ref, core.ModeOptimized, core.DefaultOptions())
		if err != nil {
			fx.err = err
			return
		}
		fx.reads, err = datasets.Simulate(ref, datasets.D4.Scaled(0.06)) // 300 reads
		if err != nil {
			fx.err = err
			return
		}
		pp := datasets.DefaultPairs(datasets.D4.Scaled(0.02)) // 100 pairs
		fx.r1, fx.r2, fx.err = datasets.SimulatePairs(ref, pp)
	})
	if fx.err != nil {
		t.Fatal(fx.err)
	}
}

// checkLeaks fails t if a goroutine started during the test outlives it.
// Registered before anything else, its cleanup runs after every replica,
// gateway and test server the test starts has been torn down.
func checkLeaks(t *testing.T) {
	t.Helper()
	base := testutil.Goroutines()
	t.Cleanup(func() { testutil.CheckGoroutines(t, base, 0) })
}

func replicaConfig() core.ServerConfig {
	cfg := core.DefaultServerConfig()
	cfg.Threads = 2
	cfg.BatchSize = 64
	return cfg
}

// newReplica starts one real bwaserve replica over the shared aligner.
func newReplica(t testing.TB) *httptest.Server {
	t.Helper()
	fixture(t)
	s, err := server.New(fx.aln, replicaConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts
}

// newFleet starts n replicas plus a gateway routing across them (and any
// extra URLs), returning the gateway's test server. cfg.Replicas is
// filled in; tweak other fields freely.
func newFleet(t testing.TB, n int, cfg Config, extra ...string) (*Gateway, *httptest.Server, []*httptest.Server) {
	t.Helper()
	reps := make([]*httptest.Server, n)
	for i := range reps {
		reps[i] = newReplica(t)
		cfg.Replicas = append(cfg.Replicas, reps[i].URL)
	}
	cfg.Replicas = append(cfg.Replicas, extra...)
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 50 * time.Millisecond
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g)
	t.Cleanup(func() { ts.Close(); g.Close() })
	return g, ts, reps
}

// doPost posts body and returns status plus the full response body. A
// fixed X-Request-Id pins the one nondeterministic envelope field so
// gateway and single-server responses can be compared byte for byte.
func doPost(t testing.TB, base, path, contentType string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	req.Header.Set("X-Request-Id", "gwtest-0001")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

func fastqBytes(reads []seq.Read) []byte {
	var buf bytes.Buffer
	_ = seq.WriteFastq(&buf, reads)
	return buf.Bytes()
}

func interleave(r1, r2 []seq.Read) []seq.Read {
	out := make([]seq.Read, 0, 2*len(r1))
	for i := range r1 {
		out = append(out, r1[i], r2[i])
	}
	return out
}

// TestGatewayByteIdentical is the core property: across a seeded mix of
// request shapes, the gateway's response — status, content type, body —
// is byte-identical to a single replica's answer for the same request.
func TestGatewayByteIdentical(t *testing.T) {
	fixture(t)
	single := newReplica(t)
	_, gw, _ := newFleet(t, 3, Config{})

	jsonBody := func(reads []seq.Read) []byte {
		var sb strings.Builder
		sb.WriteString(`{"reads":[`)
		for i, rd := range reads {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `{"name":%q,"seq":%q,"qual":%q}`, rd.Name, rd.Seq, rd.Qual)
		}
		sb.WriteString(`]}`)
		return []byte(sb.String())
	}
	pairedJSON := func(r1, r2 []seq.Read) []byte {
		one := func(reads []seq.Read) string {
			var sb strings.Builder
			for i, rd := range reads {
				if i > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, `{"name":%q,"seq":%q,"qual":%q}`, rd.Name, rd.Seq, rd.Qual)
			}
			return sb.String()
		}
		return []byte(`{"reads1":[` + one(r1) + `],"reads2":[` + one(r2) + `]}`)
	}

	cases := []struct {
		name, path, ct string
		body           []byte
	}{
		{"single-one-read", "/v1/align?header=0", "application/x-fastq", fastqBytes(fx.reads[:1])},
		{"single-multi-fastq", "/v1/align?header=0", "application/x-fastq", fastqBytes(fx.reads)},
		{"single-with-header", "/v1/align", "application/x-fastq", fastqBytes(fx.reads[:40])},
		{"single-json", "/v1/align?header=0", "application/json", jsonBody(fx.reads[:50])},
		{"single-legacy-path", "/align?header=0", "application/x-fastq", fastqBytes(fx.reads[40:80])},
		{"paired-json", "/v1/align/paired?header=0", "application/json", pairedJSON(fx.r1, fx.r2)},
		{"paired-with-header", "/v1/align/paired", "application/json", pairedJSON(fx.r1[:20], fx.r2[:20])},
		{"paired-interleaved", "/v1/align/paired?header=0", "text/plain", fastqBytes(interleave(fx.r1, fx.r2))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantCode, wantHdr, want := doPost(t, single.URL, tc.path, tc.ct, tc.body)
			gotCode, gotHdr, got := doPost(t, gw.URL, tc.path, tc.ct, tc.body)
			if wantCode != http.StatusOK {
				t.Fatalf("single server rejected the request: %d %s", wantCode, want)
			}
			if gotCode != wantCode {
				t.Fatalf("gateway status %d, single server %d: %s", gotCode, wantCode, got)
			}
			if gct, wct := gotHdr.Get("Content-Type"), wantHdr.Get("Content-Type"); gct != wct {
				t.Fatalf("content type %q, single server %q", gct, wct)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("gateway response differs from single server (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// TestGatewayErrorEnvelopesByteIdentical pins the rejection surface: for
// every error class the gateway produces itself, its envelope matches the
// single server's byte for byte (same fixed request ID on both sides).
func TestGatewayErrorEnvelopesByteIdentical(t *testing.T) {
	fixture(t)
	// Match caps so both tiers reject at the same threshold.
	cfg := replicaConfig()
	cfg.MaxReadsPerRequest = 8
	s, err := server.New(fx.aln, cfg)
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(s)
	t.Cleanup(func() { single.Close(); s.Close() })
	_, gw, _ := newFleet(t, 2, Config{MaxReadsPerRequest: 8})

	// do sends one case's request; an empty reqID sends the fixed safe ID
	// that pins the envelope's one nondeterministic field.
	do := func(t *testing.T, base, method, path, ct, reqID string, body []byte) (int, http.Header, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		if reqID == "" {
			reqID = "gwtest-0001"
		}
		req.Header.Set("X-Request-Id", reqID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header, b
	}
	const unsafeID = `evil"id`
	cases := []struct {
		name, method, path, ct, reqID string
		body                          []byte
		wantStatus                    int
	}{
		{"415-bad-content-type", http.MethodPost, "/v1/align", "application/xml", "", fastqBytes(fx.reads[:1]), http.StatusUnsupportedMediaType},
		{"400-empty-body", http.MethodPost, "/v1/align", "application/x-fastq", "", nil, http.StatusBadRequest},
		{"400-malformed-json", http.MethodPost, "/v1/align", "application/json", "", []byte(`{"reads":`), http.StatusBadRequest},
		{"400-odd-interleave", http.MethodPost, "/v1/align/paired", "text/plain", "", fastqBytes(fx.reads[:3]), http.StatusBadRequest},
		{"413-too-many-reads", http.MethodPost, "/v1/align", "application/x-fastq", "", fastqBytes(fx.reads[:9]), http.StatusRequestEntityTooLarge},
		{"404-no-route", http.MethodPost, "/v1/nope", "application/x-fastq", "", fastqBytes(fx.reads[:1]), http.StatusNotFound},
		{"404-unversioned-unknown", http.MethodGet, "/nope", "", "", nil, http.StatusNotFound},
		{"405-get-align", http.MethodGet, "/v1/align", "", "", nil, http.StatusMethodNotAllowed},
		{"405-get-legacy-align", http.MethodGet, "/align", "", "", nil, http.StatusMethodNotAllowed},
		{"415-unsafe-request-id-replaced", http.MethodPost, "/v1/align", "application/xml", unsafeID, fastqBytes(fx.reads[:1]), http.StatusUnsupportedMediaType},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantCode, wantHdr, want := do(t, single.URL, tc.method, tc.path, tc.ct, tc.reqID, tc.body)
			gotCode, gotHdr, got := do(t, gw.URL, tc.method, tc.path, tc.ct, tc.reqID, tc.body)
			if wantCode != tc.wantStatus {
				t.Fatalf("single server status %d, expected %d: %s", wantCode, tc.wantStatus, want)
			}
			if tc.reqID == unsafeID {
				// Both tiers must mint a fresh 16-hex-char ID in place of the
				// unsafe one and carry it in the envelope; with each side's
				// own ID masked the envelopes are byte-identical.
				for _, side := range []struct {
					hdr  http.Header
					body *[]byte
				}{{wantHdr, &want}, {gotHdr, &got}} {
					id := side.hdr.Get("X-Request-Id")
					if len(id) != 16 || strings.Trim(id, "0123456789abcdef") != "" {
						t.Fatalf("unsafe X-Request-Id answered with %q, want a fresh 16-hex-char ID", id)
					}
					if !bytes.Contains(*side.body, []byte(`"request_id":"`+id+`"`)) {
						t.Fatalf("envelope %q does not carry the replacement ID %q", *side.body, id)
					}
					*side.body = bytes.ReplaceAll(*side.body, []byte(id), []byte("<id>"))
				}
			}
			if gotCode != wantCode || !bytes.Equal(got, want) {
				t.Fatalf("gateway envelope (%d) %q differs from single server (%d) %q",
					gotCode, got, wantCode, want)
			}
			if tc.wantStatus == http.StatusMethodNotAllowed {
				if a, sa := gotHdr.Get("Allow"), wantHdr.Get("Allow"); a != "POST" || sa != "POST" {
					t.Fatalf("Allow header gateway %q / single %q, want POST", a, sa)
				}
			}
		})
	}
}

// slowProxy forwards align traffic to a backend with an added delay on
// the response, standing in for one overloaded replica in the fleet.
func slowProxy(t testing.TB, backend string, delay time.Duration) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "align") {
			time.Sleep(delay)
		}
		proxyOnce(t, w, r, backend, -1)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// proxyOnce forwards one request to backend, copying the response through
// — truncated to cut bytes when cut >= 0, then aborting the connection so
// the truncation is a transport error downstream, exactly like a replica
// dying mid-stream.
func proxyOnce(t testing.TB, w http.ResponseWriter, r *http.Request, backend string, cut int) {
	t.Helper()
	req, err := http.NewRequestWithContext(r.Context(), r.Method, backend+r.URL.RequestURI(), r.Body)
	if err != nil {
		t.Error(err)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		panic(http.ErrAbortHandler) // backend gone: kill our side too
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if cut >= 0 && cut < len(body) {
		_, _ = w.Write(body[:cut])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}
	_, _ = w.Write(body)
}

// TestGatewaySlowReplica: one replica answers align calls slowly; the
// merged response must still be byte-identical and in input order (later
// groups wait for the stalled partition).
func TestGatewaySlowReplica(t *testing.T) {
	fixture(t)
	single := newReplica(t)
	backend := newReplica(t)
	slow := slowProxy(t, backend.URL, 250*time.Millisecond)
	_, gw, _ := newFleet(t, 1, Config{}, slow.URL)

	body := fastqBytes(fx.reads[:120])
	wantCode, _, want := doPost(t, single.URL, "/v1/align?header=0", "application/x-fastq", body)
	gotCode, _, got := doPost(t, gw.URL, "/v1/align?header=0", "application/x-fastq", body)
	if wantCode != http.StatusOK || gotCode != http.StatusOK {
		t.Fatalf("status gateway %d / single %d", gotCode, wantCode)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("gateway response with a slow replica differs from single server")
	}
}

// TestGatewayRetryMidStream: a replica dies partway through streaming its
// partition. The gateway must mark it down, re-dispatch the undelivered
// remainder to a healthy ring node, and still produce a byte-identical
// response.
func TestGatewayRetryMidStream(t *testing.T) {
	fixture(t)
	checkLeaks(t)
	single := newReplica(t)
	backend := newReplica(t)
	var aligns, kills atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cut := -1
		if strings.Contains(r.URL.Path, "align") && aligns.Add(1) == 1 {
			kills.Add(1)
			cut = 100 // die 100 bytes into the first align response
		}
		proxyOnce(t, w, r, backend.URL, cut)
	}))
	t.Cleanup(flaky.Close)
	// Probes off (the replica answers readyz fine and would be legitimately
	// re-admitted within one probe period): the test asserts the *passive*
	// detection verdict, which must persist until a probe says otherwise.
	g, gw, _ := newFleet(t, 1, Config{ProbeInterval: time.Hour}, flaky.URL)

	body := fastqBytes(fx.reads)
	wantCode, _, want := doPost(t, single.URL, "/v1/align?header=0", "application/x-fastq", body)
	gotCode, _, got := doPost(t, gw.URL, "/v1/align?header=0", "application/x-fastq", body)
	if wantCode != http.StatusOK || gotCode != http.StatusOK {
		t.Fatalf("status gateway %d / single %d", gotCode, wantCode)
	}
	if kills.Load() == 0 {
		t.Fatal("flaky replica never received an align call; scenario not exercised")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("gateway response after mid-stream replica death differs from single server")
	}
	if g.met.retries.Load() == 0 {
		t.Fatal("no retry recorded after a replica died mid-stream")
	}
	// Passive detection must have taken the flaky replica out of rotation.
	var down *replica
	for _, rep := range g.replicas {
		if rep.url == strings.TrimRight(flaky.URL, "/") {
			down = rep
		}
	}
	if down == nil || down.State() != stateDown {
		t.Fatal("flaky replica not marked down after its transport failure")
	}
}

// TestGatewayHeaderAfterOwnerDies: the partition that owns the response
// header fails before delivering it; the retry must re-request the header
// so the response still carries exactly one.
func TestGatewayHeaderAfterOwnerDies(t *testing.T) {
	fixture(t)
	single := newReplica(t)
	backend := newReplica(t)
	var aligns atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cut := -1
		// Kill the first align response before a full record got out:
		// whichever partition lands here first (header owner included)
		// retries elsewhere.
		if strings.Contains(r.URL.Path, "align") && aligns.Add(1) == 1 {
			cut = 10
		}
		proxyOnce(t, w, r, backend.URL, cut)
	}))
	t.Cleanup(flaky.Close)
	_, gw, _ := newFleet(t, 1, Config{}, flaky.URL)

	body := fastqBytes(fx.reads[:60])
	wantCode, _, want := doPost(t, single.URL, "/v1/align", "application/x-fastq", body)
	gotCode, _, got := doPost(t, gw.URL, "/v1/align", "application/x-fastq", body)
	if wantCode != http.StatusOK || gotCode != http.StatusOK {
		t.Fatalf("status gateway %d / single %d", gotCode, wantCode)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("gateway response differs after the header-owning partition retried")
	}
	if n := strings.Count(string(got), "@SQ\t"); n != strings.Count(string(want), "@SQ\t") {
		t.Fatalf("header duplicated or lost: %d @SQ blocks", n)
	}
}

// TestGatewayPairedRetryReplays: paired requests route whole; a replica
// dying mid-stream forces a full replay on the other node with the
// already-delivered pair groups skipped.
func TestGatewayPairedRetryReplays(t *testing.T) {
	fixture(t)
	single := newReplica(t)
	backend := newReplica(t)
	var aligns atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cut := -1
		if strings.Contains(r.URL.Path, "align") && aligns.Add(1) == 1 {
			cut = 400
		}
		proxyOnce(t, w, r, backend.URL, cut)
	}))
	t.Cleanup(flaky.Close)
	g, gw, _ := newFleet(t, 1, Config{}, flaky.URL)

	body := fastqBytes(interleave(fx.r1, fx.r2))
	wantCode, _, want := doPost(t, single.URL, "/v1/align/paired?header=0", "text/plain", body)

	// Paired requests hash to one node; aim a request at the flaky one by
	// retrying with different read subsets until it lands there (the key is
	// content-dependent). All subsets must still be byte-identical.
	landed := false
	for off := 0; off+10 <= len(fx.r1) && !landed; off += 10 {
		sub := fastqBytes(interleave(fx.r1[off:off+10], fx.r2[off:off+10]))
		wc, _, w1 := doPost(t, single.URL, "/v1/align/paired?header=0", "text/plain", sub)
		gc, _, g1 := doPost(t, gw.URL, "/v1/align/paired?header=0", "text/plain", sub)
		if wc != http.StatusOK || gc != http.StatusOK || !bytes.Equal(g1, w1) {
			t.Fatalf("paired subset at %d: status %d/%d or bytes differ", off, gc, wc)
		}
		landed = aligns.Load() > 0 && g.met.retries.Load() > 0
	}
	if !landed {
		t.Fatal("no paired subset landed on the flaky replica; the paired replay path was not exercised")
	}
	gotCode, _, got := doPost(t, gw.URL, "/v1/align/paired?header=0", "text/plain", body)
	if wantCode != http.StatusOK || gotCode != http.StatusOK {
		t.Fatalf("status gateway %d / single %d", gotCode, wantCode)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("gateway paired response differs from single server")
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestGatewayHealthGateLifecycle drives one replica through the full
// probe-state machine: up → draining → down (probe failures) → up again.
func TestGatewayHealthGateLifecycle(t *testing.T) {
	var mode atomic.Value // "ready" | "draining" | "broken"
	mode.Store("ready")
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/readyz" {
			http.NotFound(w, r)
			return
		}
		switch mode.Load().(string) {
		case "ready":
			w.Header().Set("Content-Type", "application/json")
			_, _ = io.WriteString(w, `{"status":"ready","reads_inflight":0}`+"\n")
		case "draining":
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = io.WriteString(w, `{"status":"draining","reads_inflight":0}`+"\n")
		default: // broken: not JSON, not a readiness answer
			w.WriteHeader(http.StatusInternalServerError)
		}
	}))
	t.Cleanup(stub.Close)

	cfg := Config{Replicas: []string{stub.URL}, ProbeInterval: 20 * time.Millisecond, FailAfter: 2}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	rep := g.replicas[0]

	waitFor(t, 2*time.Second, func() bool { return rep.State() == stateUp }, "replica never marked up")
	mode.Store("draining")
	waitFor(t, 2*time.Second, func() bool { return rep.State() == stateDraining }, "replica never marked draining")
	mode.Store("broken")
	waitFor(t, 2*time.Second, func() bool { return rep.State() == stateDown }, "replica never marked down")
	if int(rep.failStreak.Load()) < cfg.FailAfter {
		t.Fatalf("down with failStreak %d < FailAfter %d", rep.failStreak.Load(), cfg.FailAfter)
	}
	mode.Store("ready")
	waitFor(t, 2*time.Second, func() bool { return rep.State() == stateUp }, "replica never re-added after recovery")
	if g.healthyCount() != 1 {
		t.Fatalf("healthyCount %d, want 1", g.healthyCount())
	}
}

// TestGatewayRoutesAroundDeadReplica: with one fleet member gone, align
// traffic must keep succeeding on the survivors with no client-visible
// failures, and the dead node must show in readyz/metrics accounting.
func TestGatewayRoutesAroundDeadReplica(t *testing.T) {
	fixture(t)
	single := newReplica(t)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // connection refused from the start
	g, gw, _ := newFleet(t, 2, Config{ProbeInterval: 20 * time.Millisecond, FailAfter: 1}, deadURL)

	waitFor(t, 2*time.Second, func() bool { return g.healthyCount() == 2 }, "dead replica never probed down")
	body := fastqBytes(fx.reads[:80])
	wantCode, _, want := doPost(t, single.URL, "/v1/align?header=0", "application/x-fastq", body)
	gotCode, _, got := doPost(t, gw.URL, "/v1/align?header=0", "application/x-fastq", body)
	if wantCode != http.StatusOK || gotCode != http.StatusOK {
		t.Fatalf("status gateway %d / single %d", gotCode, wantCode)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("gateway response with a dead fleet member differs from single server")
	}

	resp, err := http.Get(gw.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	met, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(met), "bwagate_replicas_up 2") {
		t.Fatalf("metrics do not report 2 healthy replicas:\n%.400s", met)
	}
	if !strings.Contains(string(met), fmt.Sprintf("bwagate_replica_state{replica=%q,state=%q} 1", deadURL, "down")) {
		t.Fatal("metrics do not report the dead replica as down")
	}
}

// TestGatewayNoUpstream: with every replica down, align requests fail
// fast with the 502 upstream_unavailable envelope — before any body work.
func TestGatewayNoUpstream(t *testing.T) {
	fixture(t)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()
	g, gw, _ := newFleet(t, 0, Config{ProbeInterval: 20 * time.Millisecond, FailAfter: 1}, deadURL)
	waitFor(t, 2*time.Second, func() bool { return g.healthyCount() == 0 }, "dead replica never probed down")

	code, _, body := doPost(t, gw.URL, "/v1/align?header=0", "application/x-fastq", fastqBytes(fx.reads[:2]))
	if code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502: %s", code, body)
	}
	if !strings.Contains(string(body), codeUpstreamUnavailable) {
		t.Fatalf("envelope missing %q: %s", codeUpstreamUnavailable, body)
	}

	// readyz mirrors it: a gateway with no healthy replicas is not ready.
	resp, err := http.Get(gw.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(rb), "unavailable") {
		t.Fatalf("readyz %d %s, want 503 unavailable", resp.StatusCode, rb)
	}
}

// TestGatewayLogsReplicaDown: a replica that drops the connection before
// its first byte yields exactly one JSON "replica down" event, naming the
// replica and the passive detector and carrying the request's ID.
func TestGatewayLogsReplicaDown(t *testing.T) {
	fixture(t)
	checkLeaks(t)
	cut := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	defer cut.Close()
	// A long probe interval keeps the prober silent: only the passive
	// detector may log.
	g, gw, _ := newFleet(t, 0, Config{ProbeInterval: time.Hour}, cut.URL)
	var buf testutil.SyncBuffer
	g.SetLogger(slog.New(slog.NewJSONHandler(&buf, nil)))

	if code, _, body := doPost(t, gw.URL, "/v1/align?header=0", "application/x-fastq", fastqBytes(fx.reads[:4])); code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502: %s", code, body)
	}
	var down []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("log line is not JSON: %v: %s", err, line)
		}
		if ev["msg"] == "replica down" {
			down = append(down, ev)
		}
	}
	if len(down) != 1 {
		t.Fatalf("got %d replica down events, want 1:\n%s", len(down), buf.String())
	}
	ev := down[0]
	if msg, _ := ev["err"].(string); msg == "" || ev["replica"] != cut.URL || ev["cause"] != "passive" ||
		ev["level"] != "WARN" || ev["request_id"] != "gwtest-0001" {
		t.Fatalf("bad replica down event %v", ev)
	}
}

// TestGatewayCancelBeforeFirstByte: a client that goes away before its
// first byte is the client's doing, not a routing failure. Each such
// request yields one INFO "request cancelled" event and nothing at WARN,
// no_upstream stays 0, and the upstream call is cancelled with the client.
func TestGatewayCancelBeforeFirstByte(t *testing.T) {
	fixture(t)
	checkLeaks(t)
	const clients = 4
	arrived := make(chan struct{}, clients)
	release := make(chan struct{})
	// The replica holds every align call until the gateway cancels it.
	hold := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		select {
		case <-r.Context().Done():
		case <-release: // teardown of a gateway that never cancelled
		}
	}))
	t.Cleanup(hold.Close)
	g, gw, _ := newFleet(t, 0, Config{ProbeInterval: time.Hour}, hold.URL)
	t.Cleanup(func() { close(release) })
	var buf testutil.SyncBuffer
	g.SetLogger(slog.New(slog.NewJSONHandler(&buf, nil)))

	body := fastqBytes(fx.reads[:1])
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		ctx, cancel := context.WithCancel(t.Context())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, gw.URL+"/v1/align?header=0", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/x-fastq")
		req.Header.Set("X-Request-Id", fmt.Sprintf("cancel-%d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
				t.Errorf("cancelled request answered %d", resp.StatusCode)
			}
		}()
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			t.Fatal("request never reached the replica")
		}
		cancel()
	}
	wg.Wait()

	events := func() []map[string]any {
		var evs []map[string]any
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var ev map[string]any
			if json.Unmarshal([]byte(line), &ev) == nil {
				evs = append(evs, ev)
			}
		}
		return evs
	}
	// Every request's handler logs once when it gives up on the client.
	waitFor(t, 5*time.Second, func() bool {
		seen := map[any]bool{}
		for _, ev := range events() {
			seen[ev["request_id"]] = true
		}
		for i := 0; i < clients; i++ {
			if !seen[fmt.Sprintf("cancel-%d", i)] {
				return false
			}
		}
		return true
	}, "the gateway never finished the cancelled requests")
	cancelled := 0
	for _, ev := range events() {
		if ev["level"] == "WARN" {
			t.Errorf("WARN event for a client cancellation: %v", ev)
		}
		if ev["msg"] == "request cancelled" {
			cancelled++
			if ev["level"] != "INFO" || ev["err"] != "context canceled" {
				t.Errorf("bad request cancelled event %v", ev)
			}
		}
	}
	if cancelled != clients {
		t.Errorf("got %d request cancelled events, want %d:\n%s", cancelled, clients, buf.String())
	}

	resp, err := http.Get(gw.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	met, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `bwagate_requests_rejected_total{reason="no_upstream"} 0`; !strings.Contains(string(met), want) {
		t.Errorf("client cancellations counted as routing failures: want %s", want)
	}
}

// TestGatewayDrain: Shutdown flips readyz to 503, align requests get the
// draining envelope, and healthz stays 200 (liveness only), matching the
// replica contract.
func TestGatewayDrain(t *testing.T) {
	fixture(t)
	checkLeaks(t)
	g, gw, _ := newFleet(t, 1, Config{})

	if err := g.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	code, _, body := doPost(t, gw.URL, "/v1/align?header=0", "application/x-fastq", fastqBytes(fx.reads[:2]))
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("align during drain: %d %s", code, body)
	}
	resp, err := http.Get(gw.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(gw.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(hb), "draining") {
		t.Fatalf("healthz during drain: %d %s, want 200 draining", resp.StatusCode, hb)
	}
}

// TestGatewayDrainWaitsForInFlight: with an admitted align request held
// open on its replica, Shutdown under an already-expired ctx reports the
// interrupted drain, and Shutdown under a live ctx blocks until that
// request has streamed its full response, then returns nil.
func TestGatewayDrainWaitsForInFlight(t *testing.T) {
	fixture(t)
	checkLeaks(t)
	backend := newReplica(t)
	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	hold := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "align") {
			arrived <- struct{}{}
			<-release
		}
		proxyOnce(t, w, r, backend.URL, -1)
	}))
	t.Cleanup(hold.Close)
	g, gw, _ := newFleet(t, 0, Config{ProbeInterval: time.Hour}, hold.URL)

	body := fastqBytes(fx.reads[:20])
	wantCode, _, want := doPost(t, backend.URL, "/v1/align?header=0", "application/x-fastq", body)
	type answer struct {
		code int
		body []byte
	}
	got := make(chan answer, 1)
	go func() {
		code, _, b := doPost(t, gw.URL, "/v1/align?header=0", "application/x-fastq", body)
		got <- answer{code, b}
	}()
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("request never reached the replica")
	}

	expired, cancel := context.WithCancel(t.Context())
	cancel()
	if err := g.Shutdown(expired); err == nil {
		t.Error("Shutdown with an expired ctx and a request in flight returned nil")
	}
	drained := make(chan error, 1)
	go func() { drained <- g.Shutdown(t.Context()) }()
	select {
	case err := <-drained:
		close(release)
		t.Fatalf("Shutdown returned %v while a request was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	a := <-got
	if a.code != wantCode || !bytes.Equal(a.body, want) {
		t.Fatalf("held request answered %d, want %d with the replica's bytes", a.code, wantCode)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Shutdown after the request finished: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after the in-flight request finished")
	}
}

// TestGatewayConcurrentByteIdentical: many concurrent clients, each with
// its own read subset, all byte-identical — the merge path under real
// contention.
func TestGatewayConcurrentByteIdentical(t *testing.T) {
	fixture(t)
	checkLeaks(t)
	single := newReplica(t)
	_, gw, _ := newFleet(t, 3, Config{})

	const clients = 8
	chunk := len(fx.reads) / clients
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := fastqBytes(fx.reads[c*chunk : (c+1)*chunk])
			wc, _, want := doPost(t, single.URL, "/v1/align?header=0", "application/x-fastq", body)
			gc, _, got := doPost(t, gw.URL, "/v1/align?header=0", "application/x-fastq", body)
			if wc != http.StatusOK || gc != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d/%d", c, gc, wc)
				return
			}
			if !bytes.Equal(got, want) {
				errs <- fmt.Errorf("client %d: gateway bytes differ", c)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestWorstCaseBodyFitsTheCaps posts requests at both read caps, in reads
// and in bases, whose names and qualities are all '<': the bytes the JSON
// encoder escapes to six. The body limit both tiers derive from the caps
// must admit them, on a replica and through the gateway, single-end and
// paired.
func TestWorstCaseBodyFitsTheCaps(t *testing.T) {
	checkLeaks(t)
	fixture(t)
	const maxReads, maxLen = 10, 101
	rcfg := replicaConfig()
	rcfg.MaxReadsPerRequest, rcfg.MaxReadLen = maxReads, maxLen
	s, err := server.New(fx.aln, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := httptest.NewServer(s)
	t.Cleanup(func() { rep.Close(); s.Close() })
	g, err := New(Config{Replicas: []string{rep.URL}, MaxReadsPerRequest: maxReads, MaxReadLen: maxLen, ProbeInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g)
	t.Cleanup(func() { gw.Close(); g.Close() })

	reads := make([]bwaclient.Read, maxReads)
	for i := range reads {
		src := fx.reads[i%len(fx.reads)].Seq
		if len(src) < maxLen {
			t.Fatalf("fixture read %d has %d bases, want >= %d", i, len(src), maxLen)
		}
		name := fmt.Sprintf("%0254d", i/2) // a pair shares its name
		reads[i] = bwaclient.Read{
			Name: strings.Repeat("<", 250) + name[250:],
			Seq:  src[:maxLen],
			Qual: bytes.Repeat([]byte{'<'}, maxLen),
		}
	}
	var r1, r2 []bwaclient.Read
	for i := 0; i < maxReads; i += 2 {
		r1, r2 = append(r1, reads[i]), append(r2, reads[i+1])
	}
	ctx := context.Background()
	for _, tier := range []struct{ name, url string }{{"replica", rep.URL}, {"gateway", gw.URL}} {
		cl, err := bwaclient.New(tier.url, bwaclient.WithRetries(0))
		if err != nil {
			t.Fatal(err)
		}
		records := func(sam []byte) int { return bytes.Count(append([]byte{'\n'}, sam...), []byte("\n<<<<")) }
		if sam, err := cl.AlignSAM(ctx, reads); err != nil {
			t.Errorf("%s single-end: %v", tier.name, err)
		} else if n := records(sam); n < maxReads {
			t.Errorf("%s single-end: %d records, want >= %d", tier.name, n, maxReads)
		}
		if sam, err := cl.AlignPairedSAM(ctx, r1, r2); err != nil {
			t.Errorf("%s paired: %v", tier.name, err)
		} else if n := records(sam); n < maxReads {
			t.Errorf("%s paired: %d records, want >= %d", tier.name, n, maxReads)
		}
	}
}
