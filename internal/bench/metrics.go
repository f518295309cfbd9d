package bench

// MetricDef names one metric, its unit, which direction is better and — for
// end-to-end metrics — the share of the parent's median by which it may
// worsen before a change counts as a regression. BENCHMARK.json at the
// repository root repeats this table for the driver; a test keeps the two
// identical.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// EndToEnd is what a user of the system sees, measured with tracing off.
// Every workload reports every one of them; README.md defines each.
var EndToEnd = []MetricDef{
	{Name: "reads_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "request_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "request_p99_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "correct_frac", Unit: "frac", Better: higher, Bound: 0.03},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
}

// PerLayer is the traced pass's ledger: one or more numbers per layer, taken
// by timing calls into the layer's exported functions from this package.
var PerLayer = []MetricDef{
	{Name: "fmindex.smem_us_per_read", Unit: "us", Better: lower},
	{Name: "fmindex.smem_allocs_per_read", Unit: "count", Better: lower},
	{Name: "fmindex.intervals_per_read", Unit: "count", Better: lower},
	{Name: "sal.lookup_ns", Unit: "ns", Better: lower},
	{Name: "sal.lookups_per_read", Unit: "count", Better: lower},
	{Name: "bsw.extend_us_per_job", Unit: "us", Better: lower},
	{Name: "bsw.jobs_per_read", Unit: "count", Better: lower},
	{Name: "bsw.cells_per_job", Unit: "count", Better: lower},
	{Name: "bsw.allocs_per_job", Unit: "count", Better: lower},
	{Name: "core.alignbatch_us_per_read", Unit: "us", Better: lower},
	{Name: "core.alignbatch_allocs_per_read", Unit: "count", Better: lower},
	{Name: "core.alignbatch_bytes_per_read", Unit: "B", Better: lower},
	{Name: "core.samform_us_per_read", Unit: "us", Better: lower},
	{Name: "core.samform_allocs_per_read", Unit: "count", Better: lower},
	{Name: "core.chain_share", Unit: "frac", Better: lower},
	{Name: "core.pair_us_per_pair", Unit: "us", Better: lower},
	{Name: "core.index_bytes", Unit: "B", Better: lower},
	{Name: "pipeline.t1_reads_per_s", Unit: "1/s", Better: higher},
	{Name: "pipeline.scaling_eff", Unit: "frac", Better: higher},
	{Name: "pipeline.overhead_frac", Unit: "frac", Better: lower},
	{Name: "pipeline.baseline_t1_reads_per_s", Unit: "1/s", Better: higher},
	{Name: "seq.fastq_us_per_read", Unit: "us", Better: lower},
	{Name: "server.handler_us_per_read", Unit: "us", Better: lower},
	{Name: "server.parse_ms", Unit: "ms", Better: lower},
	{Name: "server.admit_ms", Unit: "ms", Better: lower},
	{Name: "server.cache_ms", Unit: "ms", Better: lower},
	{Name: "server.ttfb_ms", Unit: "ms", Better: lower},
	{Name: "server.reads_per_batch", Unit: "count", Better: higher},
	{Name: "rescache.hit_ratio", Unit: "frac", Better: higher},
	{Name: "bwaclient.overhead_us_per_read", Unit: "us", Better: lower},
	{Name: "gateway.overhead_us_per_read", Unit: "us", Better: lower},
	{Name: "gateway.assigned_skew", Unit: "frac", Better: lower},
	{Name: "gateway.spilled", Unit: "count", Better: lower},
	{Name: "gateway.retries", Unit: "count", Better: lower},
}
