// Package gateway is the bwagate front tier: an HTTP server speaking the
// exact /v1 wire contract that fans align requests out across a fleet of
// bwaserve replicas through pkg/bwaclient and merges the ordered SAM
// streams back into one response byte-identical to a single server's.
//
// Routing is consistent-hash on the encoded sequence (ring.go) so
// duplicate-heavy traffic keeps each replica's rescache hot, with
// bounded-load spill to the next ring node when the owner is overloaded.
// Replicas are health-gated (health.go): periodic /v1/readyz probes plus
// passive failure detection take a replica out of new assignments while
// in-flight streams finish, and a succeeding probe re-adds it. Single-end
// requests are partitioned per read and scattered concurrently; paired
// requests route whole to one replica (insert-size statistics are
// request-scoped, so splitting a paired request would change its bytes).
// Failed partitions are retried on the next healthy ring node, resuming
// after the record groups already merged (proxy.go).
//
// The request plane in front of that routing is the replica's own code,
// not a copy: server.Mount (route table, aliases, request IDs, the 405
// gate, the 404 catch-all, the error envelope), the align intake and
// request counters (server.RequestCounters), and the ordered response with
// its Server-Timing hook (server.NewSAMStream), and the admission gate
// (server.Admission, here with an unbounded read budget, so it only refuses
// during drain and counts what Shutdown waits for). The gateway mounts
// every route but the replica-only /v1/debug/requests.
package gateway

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/pkg/bwaclient"
)

// Error code for gateway-origin failures: no healthy replica to route to,
// or every retry exhausted before a byte was written. Wire-contract codes
// (bad_request, overloaded, ...) pass through from replicas unchanged.
const codeUpstreamUnavailable = "upstream_unavailable"

// Routing constants.
const (
	// probeTimeout bounds one readyz probe.
	probeTimeout = 2 * time.Second
	// spillFactor is the bounded-load factor c: a partition spills past its
	// ring owner when the owner's in-flight reads exceed c times the
	// healthy-fleet average.
	spillFactor = 1.25
	// ringVNodes is the virtual nodes per replica on the hash ring.
	ringVNodes = 64
	// partitionRetries is how many times a failed partition is re-dispatched
	// to another healthy replica before the request fails.
	partitionRetries = 2
	// upstreamRetries429 is bwaclient's retry count for upstream 429s
	// (admission backoff happens against the replica that owns the key,
	// preserving cache affinity).
	upstreamRetries429 = 2
)

// Config configures a Gateway. The zero value of each field means its
// documented default.
type Config struct {
	// Replicas is the bwaserve base URLs the gateway routes across.
	// Required, at least one.
	Replicas []string
	// ProbeInterval is the readyz probe period. 0 means 1s.
	ProbeInterval time.Duration
	// FailAfter is how many consecutive probe failures mark a replica
	// down (passive traffic failures mark it down immediately). 0 means 2.
	FailAfter int
	// MaxReadsPerRequest and MaxReadLen mirror the replicas' caps so the
	// gateway rejects oversized requests with the replicas' exact
	// envelopes instead of scattering work that would be rejected
	// upstream. 0 means 65536 (the server default) for both.
	MaxReadsPerRequest int
	MaxReadLen         int
}

// withDefaults resolves zero fields to their documented defaults.
func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.MaxReadsPerRequest <= 0 {
		c.MaxReadsPerRequest = 65536
	}
	if c.MaxReadLen <= 0 {
		c.MaxReadLen = 65536
	}
	return c
}

// Flags binds the gateway's configuration to fs, returning the Config the
// parsed flags fill. Flag names and help strings are documented in
// README.md's bwagate table; a drift test keeps the two in sync.
func Flags(fs *flag.FlagSet) *Config {
	c := &Config{}
	var replicas string
	fs.Func("replicas", "comma-separated bwaserve base URLs to route across (required)", func(v string) error {
		replicas = v
		for _, u := range strings.Split(v, ",") {
			if u = strings.TrimSpace(u); u != "" {
				c.Replicas = append(c.Replicas, u)
			}
		}
		if len(c.Replicas) == 0 {
			return fmt.Errorf("no replica URLs in %q", replicas)
		}
		return nil
	})
	fs.DurationVar(&c.ProbeInterval, "probe-interval", 0, "readyz probe period (0 = 1s)")
	fs.IntVar(&c.FailAfter, "fail-after", 0, "consecutive probe failures before a replica is down (0 = 2)")
	fs.IntVar(&c.MaxReadsPerRequest, "max-request-reads", 0, "max reads per request, 413 beyond; match the replicas (0 = 65536)")
	fs.IntVar(&c.MaxReadLen, "max-read-len", 0, "max bases per read, 413 beyond; match the replicas (0 = 65536)")
	return c
}

// Gateway is the routing front tier. Construct with New, serve via
// Handler/ServeHTTP, stop with Shutdown (graceful) or Close.
type Gateway struct {
	cfg      Config
	replicas []*replica
	ring     *hashRing
	mux      *http.ServeMux
	met      *gwMetrics
	upstream *http.Client

	adm         *server.Admission // drain gate: unbounded budget, counts admitted reads
	probeCancel context.CancelFunc
	probeDone   chan struct{}
	logger      atomic.Pointer[slog.Logger] // control-plane events; nil = off
}

// New builds a gateway over cfg.Replicas and starts its health prober.
// The caller must Close (or Shutdown) it.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("gateway: no replicas configured")
	}
	seen := make(map[string]bool, len(cfg.Replicas))
	urls := make([]string, 0, len(cfg.Replicas))
	for _, u := range cfg.Replicas {
		u = strings.TrimRight(u, "/")
		if seen[u] {
			return nil, fmt.Errorf("gateway: duplicate replica %s", u)
		}
		seen[u] = true
		urls = append(urls, u)
	}
	// Upstream connection pooling is tuned for many concurrent streams to
	// few hosts. Align responses stream, so no overall client timeout is
	// set — request contexts bound each call.
	tr := http.DefaultTransport
	if t, ok := tr.(*http.Transport); ok {
		t = t.Clone()
		t.MaxIdleConnsPerHost = 64
		tr = t
	}
	hc := &http.Client{Transport: tr}
	g := &Gateway{cfg: cfg, mux: http.NewServeMux(), met: &gwMetrics{start: time.Now()}, upstream: hc,
		adm: server.NewAdmission(math.MaxInt), probeDone: make(chan struct{})}
	for _, u := range urls {
		cl, err := bwaclient.New(u, bwaclient.WithRetries(upstreamRetries429), bwaclient.WithHTTPClient(hc))
		if err != nil {
			return nil, fmt.Errorf("gateway: replica %s: %w", u, err)
		}
		probe, err := bwaclient.New(u, bwaclient.WithRetries(0), bwaclient.WithHTTPClient(hc))
		if err != nil {
			return nil, fmt.Errorf("gateway: replica %s: %w", u, err)
		}
		g.replicas = append(g.replicas, &replica{url: u, client: cl, probe: probe})
	}
	g.ring = buildRing(urls, ringVNodes)
	// The replica's wire surface minus its server-local debug endpoint, so
	// a client cannot tell the tiers apart.
	server.Mount(g.mux, map[string]http.HandlerFunc{
		"/v1/align":        g.handleAlign,
		"/v1/align/paired": g.handleAlignPaired,
		"/v1/healthz":      g.handleHealthz,
		"/v1/readyz":       g.handleReadyz,
		"/v1/metrics":      g.handleMetrics,
	}, &g.met.RequestCounters, nil)

	// The prober's lifetime is the gateway's, not any request's; Close
	// cancels it.
	ctx, cancel := context.WithCancel(context.Background())
	g.probeCancel = cancel
	go g.probeLoop(ctx)
	return g, nil
}

// CloseIdleConnections drops the pooled idle upstream connections (and
// with them their transport goroutines). Pool occupancy is bounded by
// configuration, not leaked, but it makes a post-load goroutine count
// load-shaped; leak checks (the soak harness's server-side invariant)
// call this first so they measure the gateway's resting footprint.
func (g *Gateway) CloseIdleConnections() { g.upstream.CloseIdleConnections() }

// SetLogger installs the control-plane logger (replica state transitions,
// retries, failed requests). nil disables logging, the default. Safe to
// call concurrently.
func (g *Gateway) SetLogger(l *slog.Logger) { g.logger.Store(l) }

// logEvent emits one control-plane event when a logger is installed. An
// event raised on a request's behalf carries its request_id, the key the
// replica's access log uses for the same request.
func (g *Gateway) logEvent(ctx context.Context, level slog.Level, msg string, attrs ...slog.Attr) {
	l := g.logger.Load()
	if l == nil {
		return
	}
	if id := server.RequestID(ctx); id != "" {
		attrs = append(attrs, slog.String("request_id", id))
	}
	l.LogAttrs(ctx, level, msg, attrs...)
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// Shutdown drains the gateway: readyz flips to 503, new align requests
// are refused with the draining envelope, and the call waits until the
// admitted ones finish or ctx ends. Idempotent.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.Close()
	if !g.adm.WaitIdle(ctx) {
		return fmt.Errorf("gateway: drain interrupted with %d reads in flight: %w", g.adm.InFlight(), ctx.Err())
	}
	return nil
}

// Close stops the prober and marks the gateway draining without waiting
// for in-flight requests. Idempotent.
func (g *Gateway) Close() {
	g.adm.SetDraining()
	g.stopProber()
}

func (g *Gateway) stopProber() {
	g.probeCancel()
	<-g.probeDone
}
