package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"repro/internal/datasets"
	"repro/internal/seq"
	"repro/pkg/bwaclient"
)

// Workload is one set of inputs the benchmark runs. The four definitions
// below are the benchmark; README.md says why each is here and which layer
// it loads.
type Workload struct {
	Name string
	Why  string

	Paired bool // reads come in pairs and go through the paired path
	Serve  bool // closed-loop clients over loopback instead of offline calls

	RepeatRich bool // repeat-rich genome (RepeatProb 0.15) instead of the mild default
	ReadLen    int
	SubRate    float64
	IndelRate  float64

	// Reads is what one offline pass aligns: reads, or pairs when Paired.
	// It is sized so a pass takes about a second on two cores, which lets a
	// run of a few seconds report a median over many passes.
	Reads int
	// TraceSample is what the traced pass runs through every layer: reads,
	// pairs, or requests for a serving workload.
	TraceSample int
}

const (
	genomeLen    = 4_000_000
	serveClients = 2    // closed-loop clients of a serving workload
	requestReads = 100  // reads per request
	requestDups  = 90   // of which drawn from the client's hot set
	hotPerClient = 1000 // distinct reads a client keeps re-sending
	// coldPerSecond sizes a client's pool of never-repeated reads: enough
	// for more than twice today's request rate, so a faster server still
	// cannot exhaust it within the timed window.
	coldPerSecond = 6000
)

// Workloads lists the benchmark's workloads in run order.
func Workloads() []Workload {
	return []Workload{
		{Name: "se101", ReadLen: 101, SubRate: 0.005, IndelRate: 0.10,
			Reads: 30000, TraceSample: 5000,
			Why: "single-end 101 bp reads on a mild-repeat genome, offline: the paper's headline case, where fmindex (SMEM) does most of the work"},
		{Name: "se250div", ReadLen: 250, SubRate: 0.04, IndelRate: 0.50, RepeatRich: true,
			Reads: 2500, TraceSample: 1000,
			Why: "long divergent single-end reads on a repeat-rich genome, offline: bsw and SAM-FORM dominate and SMEM does not, the mirror image of se101"},
		{Name: "pe101", Paired: true, ReadLen: 101, SubRate: 0.005, RepeatRich: true,
			Reads: 8000, TraceSample: 2500,
			Why: "paired-end 101 bp reads, offline: the same kernels through insert-size inference, pairing and AppendSAMPair, the dominant real workload"},
		{Name: "serve_dup90", Serve: true, ReadLen: 101, SubRate: 0.005, IndelRate: 0.10,
			TraceSample: 150,
			Why:         "2 closed-loop clients over loopback via gateway and 2 cached replicas, 90% repeated reads: HTTP, decode, rescache and merge dominate, kernels do little"},
	}
}

// WorkloadByName resolves a -workload argument.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// scale is the size class of a run: the benchmark proper, or the -quick
// smoke that tests use (tiny genome, same code paths).
type scale struct {
	genomeLen    int
	readDiv      int // divides Reads and TraceSample
	requestReads int
	requestDups  int
	hotPerClient int
	coldPerSec   int // never-repeated reads generated per client and second of window
}

var (
	fullScale  = scale{genomeLen: genomeLen, readDiv: 1, requestReads: requestReads, requestDups: requestDups, hotPerClient: hotPerClient, coldPerSec: coldPerSecond}
	quickScale = scale{genomeLen: 60_000, readDiv: 50, requestReads: 20, requestDups: 18, hotPerClient: 60, coldPerSec: 1000}
)

// subSeed derives an independent stream seed from the run seed (splitmix64),
// so the genome, the reads and each client's schedule do not share a
// generator state.
func subSeed(seed int64, salt uint64) int64 {
	z := uint64(seed) + salt*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// Inputs is everything a workload feeds the program, generated from the
// seed alone.
type Inputs struct {
	Ref   *seq.Reference
	Fasta []byte // the reference as the FASTA text set-up builds from

	Reads  []seq.Read // offline: single-end reads, or first ends
	Reads2 []seq.Read // offline paired: second ends

	Clients []*ClientSchedule // serving
}

// Generate builds the workload's inputs from seed. coldPerClient sizes each
// serving client's never-repeated pool (ignored offline).
func Generate(w Workload, seed int64, sc scale, coldPerClient int) (*Inputs, error) {
	gc := datasets.DefaultGenome("chr1", sc.genomeLen, subSeed(seed, 1))
	if w.RepeatRich {
		gc.RepeatProb, gc.Divergence = 0.15, 0.01
	}
	ref, err := datasets.Genome(gc)
	if err != nil {
		return nil, err
	}
	var fa bytes.Buffer
	if err := seq.WriteFasta(&fa, []seq.FastaRecord{{Name: gc.Name, Seq: seq.Decode(ref.Pac)}}, 80); err != nil {
		return nil, err
	}
	in := &Inputs{Ref: ref, Fasta: fa.Bytes()}
	prof := datasets.Profile{Name: w.Name, ReadLen: w.ReadLen, SubRate: w.SubRate,
		IndelRate: w.IndelRate, Seed: subSeed(seed, 2)}
	switch {
	case w.Serve:
		in.Clients, err = generateClients(ref, prof, seed, sc, coldPerClient)
	case w.Paired:
		prof.NumReads = max(w.Reads/sc.readDiv, 1)
		in.Reads, in.Reads2, err = datasets.SimulatePairs(ref, datasets.DefaultPairs(prof))
	default:
		prof.NumReads = max(w.Reads/sc.readDiv, 1)
		in.Reads, err = datasets.Simulate(ref, prof)
	}
	if err != nil {
		return nil, err
	}
	return in, nil
}

// ClientSchedule is one closed-loop client's traffic: a hot set it keeps
// re-sending and a pool of reads it sends exactly once. Requests are drawn
// on demand, deterministically from the seed.
//
// The cold pool is consumed across warm-up and timed requests alike and is
// never rewound: the server's result cache would silently turn a re-sent
// "unique" read into a hit, and the workload would stop being 90% repeats.
type ClientSchedule struct {
	Hot  []bwaclient.Read
	Cold []bwaclient.Read

	sc   scale
	rng  *rand.Rand
	next int // cold reads consumed
}

// generateClients simulates one read set, drops reads whose sequence
// already occurred (the cache keys on sequence, so two reads sharing one
// would be an unplanned repeat) and deals it into per-client hot and cold
// sets.
func generateClients(ref *seq.Reference, prof datasets.Profile, seed int64, sc scale, coldPerClient int) ([]*ClientSchedule, error) {
	perClient := sc.hotPerClient + coldPerClient
	prof.NumReads = serveClients*perClient + serveClients*perClient/50 + 16 // spare for dropped duplicates
	reads, err := datasets.Simulate(ref, prof)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]struct{}, len(reads))
	uniq := make([]bwaclient.Read, 0, len(reads))
	for _, r := range reads {
		if _, dup := seen[string(r.Seq)]; dup {
			continue
		}
		seen[string(r.Seq)] = struct{}{}
		uniq = append(uniq, bwaclient.Read(r))
	}
	if len(uniq) < serveClients*perClient {
		return nil, fmt.Errorf("bench: only %d distinct reads for %d clients x %d", len(uniq), serveClients, perClient)
	}
	clients := make([]*ClientSchedule, serveClients)
	for c := range clients {
		mine := uniq[c*perClient : (c+1)*perClient]
		clients[c] = &ClientSchedule{
			Hot: mine[:sc.hotPerClient], Cold: mine[sc.hotPerClient:],
			sc: sc, rng: rand.New(rand.NewSource(subSeed(seed, 100+uint64(c)))),
		}
	}
	return clients, nil
}

// HotRequests returns the requests that send every hot read once, so that
// the timed traffic finds the cache already holding them.
func (c *ClientSchedule) HotRequests() [][]bwaclient.Read {
	var reqs [][]bwaclient.Read
	for lo := 0; lo < len(c.Hot); lo += c.sc.requestReads {
		reqs = append(reqs, c.Hot[lo:min(lo+c.sc.requestReads, len(c.Hot))])
	}
	return reqs
}

// Next draws the client's next request: requestDups reads from the hot set
// and the rest from the unused part of the cold pool, in shuffled order. It
// reports false once the cold pool cannot fill another request.
func (c *ClientSchedule) Next() ([]bwaclient.Read, bool) {
	nCold := c.sc.requestReads - c.sc.requestDups
	if c.next+nCold > len(c.Cold) {
		return nil, false
	}
	req := make([]bwaclient.Read, 0, c.sc.requestReads)
	for i := 0; i < c.sc.requestDups; i++ {
		req = append(req, c.Hot[c.rng.Intn(len(c.Hot))])
	}
	req = append(req, c.Cold[c.next:c.next+nCold]...)
	c.next += nCold
	c.rng.Shuffle(len(req), func(i, j int) { req[i], req[j] = req[j], req[i] })
	return req, true
}

// anyRead is any of the repository's field-identical read types.
type anyRead interface {
	~struct {
		Name string
		Seq  []byte
		Qual []byte
	}
}

// convertReads converts between the field-identical read types.
func convertReads[T, S anyRead](in []S) []T {
	out := make([]T, len(in))
	for i, r := range in {
		out[i] = T(r)
	}
	return out
}

// fastqDigest is the hex SHA-256 of read sets rendered as FASTQ: the
// identity of generated inputs in results and tests.
func fastqDigest[R anyRead](sets ...[]R) string {
	h := sha256.New()
	for _, reads := range sets {
		for _, r := range reads {
			rd := seq.Read(r)
			fmt.Fprintf(h, "@%s\n%s\n+\n%s\n", rd.Name, rd.Seq, rd.Qual)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
