// Package bwaclient is the Go client for the alignment server's versioned
// /v1 HTTP API (pkg/bwamem's Server, cmd/bwaserve): it encodes read sets,
// streams SAM responses back record by record, surfaces the server's typed
// JSON error envelope as *APIError, and retries 429 admission rejections
// with the server-suggested backoff.
//
// A Client is safe for concurrent use. The zero retry policy is three
// attempts for overload (429) responses only; nothing else is ever
// retried, because an alignment request is not idempotent in cost.
package bwaclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/seq"
)

// Read is one sequencing read: name, ASCII bases, and optional per-base
// Phred+33 qualities (nil when absent). It is field-identical to
// pkg/bwamem's Read, so a []bwamem.Read converts element-wise.
type Read struct {
	Name string
	Seq  []byte
	Qual []byte
}

// Client speaks the /v1 wire API of one alignment server.
type Client struct {
	base       string
	hc         *http.Client
	retries    int  // additional attempts after a 429, beyond the first
	wantHeader bool // request the SAM @SQ/@PG header on align responses
}

// Option configures a Client at construction.
type Option func(*Client) error

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transport, instrumentation). The default is http.DefaultClient.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) error {
		if hc == nil {
			return fmt.Errorf("bwaclient: nil http client")
		}
		c.hc = hc
		return nil
	}
}

// WithRetries sets how many times a 429 (overloaded) response is retried
// before surfacing the error; the wait honors the server's Retry-After.
// Default 2 retries (three attempts total); 0 disables retrying.
func WithRetries(n int) Option {
	return func(c *Client) error {
		if n < 0 {
			return fmt.Errorf("bwaclient: negative retry count %d", n)
		}
		c.retries = n
		return nil
	}
}

// WithSAMHeader requests complete SAM documents (@SQ/@PG header before the
// records) from align calls. The default is records only, which is what
// programmatic consumers merging multiple responses want.
func WithSAMHeader(include bool) Option {
	return func(c *Client) error {
		c.wantHeader = include
		return nil
	}
}

// New builds a client for the server at baseURL (e.g.
// "http://localhost:8080"). The path prefix /v1 is implied.
func New(baseURL string, opts ...Option) (*Client, error) {
	if baseURL == "" {
		return nil, fmt.Errorf("bwaclient: empty base URL")
	}
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: http.DefaultClient, retries: 2}
	for _, opt := range opts {
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// appendReadsField appends "key":[...] holding reads in the /v1 wire
// schema, the bytes json.Marshal writes for them.
func appendReadsField(dst []byte, key string, reads []Read) []byte {
	dst = append(dst, '"')
	dst = append(dst, key...)
	dst = append(dst, `":[`...)
	for i := range reads {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = seq.AppendJSONRead(dst, reads[i].Name, reads[i].Seq, reads[i].Qual)
	}
	return append(dst, ']')
}

// bodySize is room for a request body holding reads: their bytes plus the
// schema's keys and quotes, so an unescaped body never grows.
func bodySize(reads []Read) int {
	n := 32
	for i := range reads {
		n += len(`{"name":"","seq":"","qual":""},`) + len(reads[i].Name) + len(reads[i].Seq) + len(reads[i].Qual)
	}
	return n
}

// AlignOptions adjusts a single align call, overriding the Client's
// construction-time defaults. The zero value means "records only, no
// upstream request ID" — callers wanting the Client defaults use Align /
// AlignPaired instead. Built for streaming intermediaries (the bwagate
// tier) that decide per partition whether the upstream response should
// carry the SAM header and which request ID to propagate.
type AlignOptions struct {
	// IncludeHeader requests the SAM @SQ/@PG header before the records.
	IncludeHeader bool
	// RequestID, when non-empty, is sent as X-Request-Id so the upstream
	// server's logs and traces correlate with the caller's request.
	RequestID string
}

// Align maps single-end reads, returning the SAM response as a stream —
// records arrive while the server is still aligning later reads. The
// caller must drain or Close the stream.
func (c *Client) Align(ctx context.Context, reads []Read) (*SAMStream, error) {
	return c.AlignWith(ctx, reads, AlignOptions{IncludeHeader: c.wantHeader})
}

// AlignWith is Align with per-call options.
func (c *Client) AlignWith(ctx context.Context, reads []Read, opts AlignOptions) (*SAMStream, error) {
	body := appendReadsField(append(make([]byte, 0, bodySize(reads)), '{'), "reads", reads)
	return c.postAlign(ctx, "/v1/align", append(body, '}'), opts)
}

// AlignPaired maps read pairs (reads1[i] pairs with reads2[i]), returning
// the streamed SAM response. The caller must drain or Close the stream.
func (c *Client) AlignPaired(ctx context.Context, reads1, reads2 []Read) (*SAMStream, error) {
	return c.AlignPairedWith(ctx, reads1, reads2, AlignOptions{IncludeHeader: c.wantHeader})
}

// AlignPairedWith is AlignPaired with per-call options.
func (c *Client) AlignPairedWith(ctx context.Context, reads1, reads2 []Read, opts AlignOptions) (*SAMStream, error) {
	if len(reads1) != len(reads2) {
		return nil, fmt.Errorf("bwaclient: unequal pair lists: %d vs %d reads", len(reads1), len(reads2))
	}
	body := append(make([]byte, 0, bodySize(reads1)+bodySize(reads2)), '{')
	body = append(appendReadsField(body, "reads1", reads1), ',')
	body = appendReadsField(body, "reads2", reads2)
	return c.postAlign(ctx, "/v1/align/paired", append(body, '}'), opts)
}

// AlignSAM is Align buffered: the whole SAM response as one byte slice,
// exactly as the server sent it.
func (c *Client) AlignSAM(ctx context.Context, reads []Read) ([]byte, error) {
	st, err := c.Align(ctx, reads)
	if err != nil {
		return nil, err
	}
	return st.readAll()
}

// AlignPairedSAM is AlignPaired buffered.
func (c *Client) AlignPairedSAM(ctx context.Context, reads1, reads2 []Read) ([]byte, error) {
	st, err := c.AlignPaired(ctx, reads1, reads2)
	if err != nil {
		return nil, err
	}
	return st.readAll()
}

// postAlign runs one align POST with the 429 retry loop.
func (c *Client) postAlign(ctx context.Context, path string, body []byte, opts AlignOptions) (*SAMStream, error) {
	url := c.base + path
	if !opts.IncludeHeader {
		url += "?header=0"
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if opts.RequestID != "" {
			req.Header.Set("X-Request-Id", opts.RequestID)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusOK {
			return newSAMStream(resp), nil
		}
		apiErr := decodeAPIError(resp)
		if resp.StatusCode != http.StatusTooManyRequests || attempt >= c.retries {
			return nil, apiErr
		}
		if err := sleepRetry(ctx, resp, attempt); err != nil {
			return nil, err
		}
	}
}

// maxRetryWait caps how long a single Retry-After is honored: a
// misconfigured intermediary answering "Retry-After: 86400" must not
// stall a retrying caller for a day — past the cap the client waits the
// cap, and the caller's context remains the real bound.
const maxRetryWait = 10 * time.Second

// retryWait computes how long a 429 is waited out: the server's
// Retry-After when present (capped at maxRetryWait), doubling 100ms
// backoff otherwise.
func retryWait(h http.Header, attempt int) time.Duration {
	if attempt > 6 {
		attempt = 6 // backoff saturates at 6.4s; larger shifts would overflow
	}
	wait := 100 * time.Millisecond << attempt
	if ra := h.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			// Clamp before converting to a Duration: a hostile or broken
			// "Retry-After: 9999999999999" multiplied into nanoseconds
			// overflows negative, which a later cap comparison would wave
			// through — and a negative timer fires immediately, turning
			// backoff into a hot retry loop against an overloaded server.
			if secs > int(maxRetryWait/time.Second) {
				return maxRetryWait
			}
			wait = time.Duration(secs) * time.Second
		}
	}
	if wait > maxRetryWait {
		wait = maxRetryWait
	}
	return wait
}

// sleepRetry waits out a 429 for retryWait, aborted by ctx.
func sleepRetry(ctx context.Context, resp *http.Response, attempt int) error {
	t := time.NewTimer(retryWait(resp.Header, attempt))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Health is the server's /v1/healthz report.
type Health struct {
	// Status is "ok", or "draining" during graceful shutdown.
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	ReadsInflight int     `json:"reads_inflight"`
	Workers       int     `json:"workers"`
	Contigs       int     `json:"contigs"`
	ReferenceBP   int     `json:"reference_bp"`
}

// Health fetches the server's liveness and load summary. A draining
// server reports Status "draining" (not an error): the report is the
// answer either way.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// healthz answers 200 (ok) or 503 with a JSON body (draining); any
	// other status — or a non-JSON 503, e.g. an intermediary's outage
	// page — is an error, surfaced as *APIError.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return nil, decodeAPIError(resp)
	}
	if mt, _, err := mime.ParseMediaType(resp.Header.Get("Content-Type")); err != nil || mt != "application/json" {
		return nil, decodeAPIError(resp)
	}
	var h Health
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&h); err != nil {
		return nil, fmt.Errorf("bwaclient: decoding healthz: %w", err)
	}
	return &h, nil
}

// Ready is the server's /v1/readyz report.
type Ready struct {
	// Status is "ready", or "draining" once graceful shutdown has begun.
	Status        string `json:"status"`
	ReadsInflight int    `json:"reads_inflight"`
}

// Ready fetches the server's readiness signal: whether this replica
// should receive new traffic. A draining server reports Status "draining"
// (not an error) — the report is the answer either way; only transport
// failures and non-readyz responses return an error.
func (c *Client) Ready(ctx context.Context) (*Ready, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/readyz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// readyz answers 200 (ready) or 503 with a JSON body (draining); any
	// other status — or a non-JSON 503, e.g. an intermediary's outage page —
	// is an error, surfaced as *APIError.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return nil, decodeAPIError(resp)
	}
	if mt, _, err := mime.ParseMediaType(resp.Header.Get("Content-Type")); err != nil || mt != "application/json" {
		return nil, decodeAPIError(resp)
	}
	var rd Ready
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&rd); err != nil {
		return nil, fmt.Errorf("bwaclient: decoding readyz: %w", err)
	}
	return &rd, nil
}

// Metrics fetches the server's Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeAPIError(resp)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
