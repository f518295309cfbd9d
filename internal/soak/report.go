package soak

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
)

// Schema identifies the JSON layout of a Report; bump it when a field
// changes meaning so recorded soak trajectories stay comparable. The repo
// keeps the latest record at BENCH_soak.json (regenerated by `make
// soak-record`).
const Schema = "bwago-soak/v2"

// Report is the machine-readable outcome of one soak run: throughput and
// error taxonomy per phase, end-to-end latency quantiles, runtime growth
// samples, and the list of violated invariants (empty on a clean run —
// the exit status of cmd/bwasoak is exactly this list's emptiness).
type Report struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`

	Config ConfigInfo `json:"config"`

	// Phases is the load timeline in order: one "steady" phase for a
	// plain run; chaos runs interleave "gateway-chaos-N" (replica kill →
	// restart → healthy) windows with the steady phases around them.
	Phases []*PhaseStats `json:"phases"`

	// Ops aggregates the whole run per workload operation.
	Ops map[string]*OpStats `json:"ops"`

	// ServerLatency holds p50/p90/p99 end-to-end request latency per
	// request kind, computed from the server's /v1/metrics
	// bwaserve_request_seconds histogram buckets at end of run — the same
	// buckets a dashboard's histogram_quantile reads.
	ServerLatency map[string]Quantiles `json:"server_latency_seconds"`

	// Runtime carries the leak-checkpoint samples (first and last).
	Runtime RuntimeStats `json:"runtime"`

	// Violations names every invariant that failed, most with a
	// "<invariant>: detail" shape; a clean soak has none.
	Violations []string `json:"violations"`
}

// ConfigInfo echoes the knobs the run used, for record comparability.
type ConfigInfo struct {
	DurationSeconds float64 `json:"duration_seconds"`
	Seed            int64   `json:"seed"`
	Workers         int     `json:"workers"`
	GenomeBP        int     `json:"genome_bp"`
	GenomeSeed      int64   `json:"genome_seed"`
	ReadLen         int     `json:"read_len"`
	Threads         int     `json:"threads"`
	BatchSize       int     `json:"batch_size"`
	MaxInflight     int     `json:"max_inflight"`
	MaxRequestReads int     `json:"max_request_reads"`
	Target          string  `json:"target,omitempty"`
	Topology        string  `json:"topology,omitempty"`
	Chaos           string  `json:"chaos,omitempty"`
	SLOp99Seconds   float64 `json:"slo_p99_seconds"`
}

// PhaseStats is one contiguous window of the load timeline.
type PhaseStats struct {
	Name            string           `json:"name"`
	Seconds         float64          `json:"seconds"`
	Requests        int64            `json:"requests"`
	Reads           int64            `json:"reads"`
	SAMBytes        int64            `json:"sam_bytes"`
	ReadsPerSec     float64          `json:"reads_per_sec"`
	Rejections      map[string]int64 `json:"rejections,omitempty"` // APIError code -> count
	TransportErrors int64            `json:"transport_errors"`
	Cancelled       int64            `json:"cancelled"`
	// Latency is the client-observed end-to-end quantiles for align
	// operations completed inside this phase.
	Latency Quantiles `json:"latency_seconds"`
}

// OpStats aggregates one workload operation across the run.
type OpStats struct {
	Attempts        int64            `json:"attempts"`
	OK              int64            `json:"ok"`
	Rejections      map[string]int64 `json:"rejections,omitempty"`
	TransportErrors int64            `json:"transport_errors"`
	Cancelled       int64            `json:"cancelled"`
}

// Quantiles is a latency summary in seconds.
type Quantiles struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// RuntimeStats pairs the first and last leak-checkpoint samples: growth
// between them is what the leak invariant judges.
type RuntimeStats struct {
	Samples int            `json:"samples"`
	First   RuntimeSample  `json:"first"`
	Last    RuntimeSample  `json:"last"`
	Server  *RuntimeSample `json:"server_first,omitempty"`
	ServerE *RuntimeSample `json:"server_last,omitempty"`
}

// RuntimeSample is one goroutine/heap checkpoint. Client samples come
// from the harness process; server samples from the target's
// bwaserve_go_goroutines / bwaserve_go_heap_alloc_bytes gauges.
type RuntimeSample struct {
	Goroutines     int     `json:"goroutines"`
	HeapAllocBytes float64 `json:"heap_alloc_bytes"`
}

// Write emits the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	r.Schema = Schema
	r.GoVersion = runtime.Version()
	r.GOOS = runtime.GOOS
	r.GOARCH = runtime.GOARCH
	r.CPUs = runtime.NumCPU()
	sort.Strings(r.Violations)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
