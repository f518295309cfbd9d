package bwaclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/pipeline"
	"repro/internal/seq"
	"repro/pkg/bwamem"
)

const (
	fixtureBP   = 60000
	fixtureSeed = 33
)

// Shared fixture: a facade server over a synthetic index plus the internal
// pipeline oracle over the same reference.
var fixture struct {
	once   sync.Once
	idx    *bwamem.Index
	aln    *bwamem.Aligner
	ts     *httptest.Server
	oracle *core.Aligner
	reads  []bwamem.Read
	r1, r2 []bwamem.Read
	err    error
}

func setup(t testing.TB) *httptest.Server {
	t.Helper()
	fixture.once.Do(func() {
		fixture.idx, fixture.err = bwamem.Synthetic(fixtureBP, fixtureSeed)
		if fixture.err != nil {
			return
		}
		fixture.reads, fixture.err = fixture.idx.SimulateReads(250, 101, 3)
		if fixture.err != nil {
			return
		}
		fixture.r1, fixture.r2, fixture.err = fixture.idx.SimulatePairs(120, 101, 5)
		if fixture.err != nil {
			return
		}
		fixture.aln, fixture.err = bwamem.New(fixture.idx)
		if fixture.err != nil {
			return
		}
		cfg := bwamem.DefaultServerConfig()
		cfg.Threads = 4
		cfg.BatchSize = 64
		srv, err := bwamem.NewServer(fixture.aln, cfg)
		if err != nil {
			fixture.err = err
			return
		}
		fixture.ts = httptest.NewServer(srv)

		ref, err := datasets.Genome(datasets.DefaultGenome("synthetic", fixtureBP, fixtureSeed))
		if err != nil {
			fixture.err = err
			return
		}
		fixture.oracle, fixture.err = core.NewAligner(ref, core.ModeOptimized, core.DefaultOptions())
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.ts
}

func toClientReads(reads []bwamem.Read) []Read {
	out := make([]Read, len(reads))
	for i, r := range reads {
		out[i] = Read(r)
	}
	return out
}

func seqReads(reads []bwamem.Read) []seq.Read {
	out := make([]seq.Read, len(reads))
	for i, r := range reads {
		out[i] = seq.Read(r)
	}
	return out
}

// TestRoundTripByteIdentical is the SDK round-trip contract: what
// pkg/bwaclient gets back over the wire is byte-identical to an in-process
// pipeline.Run over the same reads.
func TestRoundTripByteIdentical(t *testing.T) {
	ts := setup(t)
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	want := pipeline.Run(fixture.oracle, seqReads(fixture.reads), pipeline.Config{Threads: 4})
	sam, err := c.AlignSAM(context.Background(), toClientReads(fixture.reads))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sam, want.SAM) {
		t.Fatal("client SAM differs from pipeline.Run over the same reads")
	}

	// With the header requested, the same records follow the @-lines.
	ch, err := New(ts.URL, WithSAMHeader(true))
	if err != nil {
		t.Fatal(err)
	}
	full, err := ch.AlignSAM(context.Background(), toClientReads(fixture.reads[:10]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(full, []byte("@SQ\t")) {
		t.Fatalf("WithSAMHeader response missing header: %.40q", full)
	}
}

func TestPairedRoundTripByteIdentical(t *testing.T) {
	ts := setup(t)
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	want := pipeline.RunPaired(fixture.oracle, seqReads(fixture.r1), seqReads(fixture.r2),
		pipeline.Config{Threads: 4})
	sam, err := c.AlignPairedSAM(context.Background(), toClientReads(fixture.r1), toClientReads(fixture.r2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sam, want.SAM) {
		t.Fatal("client paired SAM differs from pipeline.RunPaired")
	}
}

func TestStreamingDecode(t *testing.T) {
	ts := setup(t)
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Align(context.Background(), toClientReads(fixture.reads[:50]))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.RequestID() == "" {
		t.Fatal("stream missing X-Request-Id")
	}
	var lines int
	var got bytes.Buffer
	for st.Next() {
		got.Write(st.Record())
		got.WriteByte('\n')
		lines++
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	want := pipeline.Run(fixture.oracle, seqReads(fixture.reads[:50]), pipeline.Config{Threads: 4})
	if !bytes.Equal(got.Bytes(), want.SAM) {
		t.Fatal("streamed records differ from pipeline.Run")
	}
	if lines < 50 {
		t.Fatalf("only %d records for 50 reads", lines)
	}
}

func TestTypedErrors(t *testing.T) {
	ts := setup(t)
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	// An invalid read (empty sequence) → 400 bad_request with a request ID.
	_, err = c.Align(context.Background(), []Read{{Name: "r", Seq: nil}})
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error %v is not an *APIError", err)
	}
	if ae.StatusCode != http.StatusBadRequest || ae.Code != CodeBadRequest {
		t.Fatalf("got status %d code %q", ae.StatusCode, ae.Code)
	}
	if ae.RequestID == "" {
		t.Fatal("APIError missing request ID")
	}
	if !strings.Contains(ae.Error(), CodeBadRequest) {
		t.Fatalf("Error() lacks the code: %s", ae.Error())
	}

	// Unequal pair lists → 400 before any request is sent... (client-side)
	if _, err := c.AlignPaired(context.Background(), toClientReads(fixture.r1), nil); err == nil && len(fixture.r1) > 0 {
		t.Fatal("unequal pair lists accepted")
	}
}

func TestHealthAndMetrics(t *testing.T) {
	ts := setup(t)
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Contigs != 1 || h.ReferenceBP != fixtureBP {
		t.Fatalf("health = %+v", h)
	}
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "bwaserve_requests_total") {
		t.Fatalf("metrics exposition missing counters: %.80s", m)
	}
}

// TestHealthIntermediary503: a 503 that is not the server's own draining
// report (an LB outage page) must surface as a typed *APIError, not a
// JSON-decode error.
func TestHealthIntermediary503(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, "<html>upstream unavailable</html>")
	}))
	defer fake.Close()
	c, err := New(fake.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Health(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want 503 *APIError", err)
	}
	if ae.Code != "" {
		t.Fatalf("intermediary response decoded a code: %q", ae.Code)
	}
}

// TestRetryOn429 exercises the retry loop against a fake server that sheds
// the first two attempts with Retry-After: 0.
func TestRetryOn429(t *testing.T) {
	var attempts atomic.Int32
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Request-Id", "shed")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(w, `{"code":"overloaded","message":"queue full","request_id":"shed"}`)
			return
		}
		fmt.Fprint(w, "rec\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*\n")
	}))
	defer fake.Close()

	c, err := New(fake.URL, WithRetries(2))
	if err != nil {
		t.Fatal(err)
	}
	sam, err := c.AlignSAM(context.Background(), []Read{{Name: "r", Seq: []byte("ACGT")}})
	if err != nil {
		t.Fatal(err)
	}
	if attempts.Load() != 3 {
		t.Fatalf("server saw %d attempts, want 3", attempts.Load())
	}
	if !strings.HasPrefix(string(sam), "rec\t") {
		t.Fatalf("unexpected SAM %q", sam)
	}

	// With retries disabled the 429 surfaces immediately as an APIError.
	attempts.Store(0)
	c0, err := New(fake.URL, WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c0.AlignSAM(context.Background(), []Read{{Name: "r", Seq: []byte("ACGT")}})
	if !IsOverloaded(err) {
		t.Fatalf("err = %v, want overloaded APIError", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeOverloaded || ae.RequestID != "shed" {
		t.Fatalf("envelope not decoded: %+v", ae)
	}
	if attempts.Load() != 1 {
		t.Fatalf("server saw %d attempts with retries disabled", attempts.Load())
	}
}

// TestRetryHonorsContext: a cancelled context aborts the retry wait.
func TestRetryHonorsContext(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer fake.Close()
	c, err := New(fake.URL, WithRetries(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.AlignSAM(ctx, []Read{{Name: "r", Seq: []byte("ACGT")}})
	if err == nil {
		t.Fatal("expected error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("retry wait ignored context (took %v)", time.Since(start))
	}
}

// TestRequestBodiesMatchMarshal pins the request bodies to the bytes
// json.Marshal writes for the wire schema, so a server (or a gateway's
// replica) receives exactly what a reflection-encoded client sent.
func TestRequestBodiesMatchMarshal(t *testing.T) {
	type wireRead struct {
		Name string `json:"name"`
		Seq  string `json:"seq"`
		Qual string `json:"qual,omitempty"`
	}
	wire := func(reads []Read) []wireRead {
		out := make([]wireRead, len(reads))
		for i, r := range reads {
			out[i] = wireRead{Name: r.Name, Seq: string(r.Seq), Qual: string(r.Qual)}
		}
		return out
	}
	var got []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ = io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "text/x-sam")
	}))
	defer ts.Close()
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	r1 := []Read{
		{Name: "r<1>&", Seq: []byte("ACGT"), Qual: []byte("II<>")},
		{Name: "é\t\u2028\xff", Seq: []byte("a\"c\\"), Qual: nil},
		{Name: "", Seq: nil, Qual: []byte{}},
	}
	r2 := []Read{{Name: "x", Seq: []byte("G")}, {Name: "y", Seq: []byte("T"), Qual: []byte("#")}, {}}
	for _, tc := range []struct {
		name string
		send func() error
		want any
	}{
		{"single", func() error { _, err := c.AlignSAM(context.Background(), r1); return err },
			struct {
				Reads []wireRead `json:"reads"`
			}{wire(r1)}},
		{"empty", func() error { _, err := c.AlignSAM(context.Background(), nil); return err },
			struct {
				Reads []wireRead `json:"reads"`
			}{wire(nil)}},
		{"paired", func() error { _, err := c.AlignPairedSAM(context.Background(), r1, r2); return err },
			struct {
				Reads1 []wireRead `json:"reads1"`
				Reads2 []wireRead `json:"reads2"`
			}{wire(r1), wire(r2)}},
	} {
		if err := tc.send(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := json.Marshal(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s body\n%s\njson.Marshal writes\n%s", tc.name, got, want)
		}
	}
}
