package obs

import (
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
)

// The one implementation of the Prometheus text format (0.0.4): both tiers'
// /v1/metrics are written by MetricsWriter and read back, by soak and the
// tests, with ParseMetrics. Label values round-trip through strconv.Quote
// and Unquote, and values are written in the shortest form that parses back
// to the same float64.

// MetricsWriter renders one scrape: each family once, under one # TYPE
// line, in the order families were first written, however the calls
// interleave them. The zero value is ready to use.
type MetricsWriter struct {
	fams []*writerFamily
}

type writerFamily struct {
	name, kind string
	text       []byte
}

// Counter writes one series of a counter family; labels are name, value
// pairs.
func (w *MetricsWriter) Counter(name string, v float64, labels ...string) {
	w.family(name, "counter").sample(name, v, labels)
}

// Gauge writes one series of a gauge family.
func (w *MetricsWriter) Gauge(name string, v float64, labels ...string) {
	w.family(name, "gauge").sample(name, v, labels)
}

// Histogram writes h as one histogram of a family: cumulative
// <name>_bucket series with an le label, then <name>_sum and <name>_count.
// The count is the +Inf bucket's, so the two agree even while observations
// land.
func (w *MetricsWriter) Histogram(name string, h *Histogram, labels ...string) {
	f := w.family(name, "histogram")
	le := append(slices.Clip(labels), "le", "")
	var cum int64
	for i, bound := range bucketSeconds {
		cum += h.buckets[i].Load()
		le[len(le)-1] = strconv.FormatFloat(bound, 'g', -1, 64) // "1e-06", "0.001024", ...
		f.sample(name+"_bucket", float64(cum), le)
	}
	cum += h.overflow.Load()
	le[len(le)-1] = "+Inf"
	f.sample(name+"_bucket", float64(cum), le)
	f.sample(name+"_sum", h.Sum().Seconds(), labels)
	f.sample(name+"_count", float64(cum), labels)
}

// family returns the named family, opening it on first use. A family
// written as two kinds panics.
func (w *MetricsWriter) family(name, kind string) *writerFamily {
	i := slices.IndexFunc(w.fams, func(f *writerFamily) bool { return f.name == name })
	if i < 0 {
		i = len(w.fams)
		w.fams = append(w.fams, &writerFamily{name: name, kind: kind})
	}
	if w.fams[i].kind != kind {
		panic(fmt.Sprintf("obs: metric family %s written as %s and as %s", name, w.fams[i].kind, kind))
	}
	return w.fams[i]
}

// sample appends name{k="v",...} value. An odd label list panics on its
// missing value.
func (f *writerFamily) sample(name string, v float64, labels []string) {
	b, sep := append(f.text, name...), byte('{')
	for i := 0; i < len(labels); i += 2 {
		b = append(append(append(b, sep), labels[i]...), '=')
		b, sep = strconv.AppendQuote(b, labels[i+1]), ','
	}
	if sep == ',' {
		b = append(b, '}')
	}
	f.text = append(strconv.AppendFloat(append(b, ' '), v, 'f', -1, 64), '\n')
}

// Bytes renders the exposition.
func (w *MetricsWriter) Bytes() (b []byte) {
	for _, f := range w.fams {
		b = append(append(b, "# TYPE "+f.name+" "+f.kind+"\n"...), f.text...)
	}
	return b
}

// Serve answers a scrape with the exposition in one write.
func (w *MetricsWriter) Serve(rw http.ResponseWriter) {
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = rw.Write(w.Bytes()) // a scraper gone mid-response leaves nothing to salvage
}

// Sample is one series line and the family it belongs to: the one the
// # TYPE line in force names when the series is that family's, otherwise
// the series' own name, with Type "".
type Sample struct {
	Family, Type string
	Name         string
	Labels       []string // name, value pairs in written order
	Value        float64
}

// Metrics is a parsed exposition, its series in order.
type Metrics []Sample

// ParseMetrics reads exposition text. Comments other than # TYPE are
// skipped; a malformed series line is an error.
func ParseMetrics(text string) (Metrics, error) {
	var m Metrics
	var fam, typ string
	for n, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			fam, typ = f[2], f[3]
		}
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: metrics line %d: %w", n+1, err)
		}
		suffix, ok := strings.CutPrefix(s.Name, fam)
		if !ok || suffix != "" && (typ != "histogram" || suffix != "_bucket" && suffix != "_sum" && suffix != "_count") {
			fam, typ = s.Name, ""
		}
		s.Family, s.Type = fam, typ
		m = append(m, s)
	}
	return m, nil
}

// parseSample reads name{k="v",...} value [timestamp].
func parseSample(line string) (s Sample, err error) {
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	s.Name, line = line[:i], line[i:]
	if line[0] == '{' {
		for line = line[1:]; !strings.HasPrefix(line, "}"); {
			key, rest, ok := strings.Cut(line, "=")
			q, err := strconv.QuotedPrefix(rest)
			if !ok || err != nil {
				return s, fmt.Errorf("bad label list in %s", s.Name)
			}
			v, _ := strconv.Unquote(q) // QuotedPrefix vouched for q
			s.Labels = append(s.Labels, key, v)
			line = strings.TrimPrefix(rest[len(q):], ",")
		}
		line = line[1:]
	}
	if f := strings.Fields(line); len(f) == 1 || len(f) == 2 {
		s.Value, err = strconv.ParseFloat(f[0], 64)
		return s, err
	}
	return s, fmt.Errorf("want a value and an optional timestamp after %s", s.Name)
}

// Value returns the value of the series with this name and exactly these
// label pairs, in written order.
func (m Metrics) Value(name string, labels ...string) (float64, bool) {
	for _, s := range m {
		if s.Name == name && slices.Equal(s.Labels, labels) {
			return s.Value, true
		}
	}
	return 0, false
}

// Buckets is one histogram read back: ascending finite upper bounds, the
// cumulative count at each, and the count at +Inf.
type Buckets struct {
	Bounds []float64
	Cum    []int64
	Total  int64
}

// Buckets extracts the histogram of family whose labels before le are
// exactly these, or nil when the exposition has none.
func (m Metrics) Buckets(family string, labels ...string) *Buckets {
	var b Buckets
	for _, s := range m {
		n := len(s.Labels) - 2
		if s.Name != family+"_bucket" || n < 0 || s.Labels[n] != "le" || !slices.Equal(s.Labels[:n], labels) {
			continue
		}
		if le := s.Labels[n+1]; le == "+Inf" {
			b.Total = int64(s.Value)
		} else if ub, err := strconv.ParseFloat(le, 64); err == nil {
			b.Bounds, b.Cum = append(b.Bounds, ub), append(b.Cum, int64(s.Value))
		}
	}
	if len(b.Bounds) == 0 {
		return nil
	}
	return &b
}

// Quantile estimates the q-th quantile with BucketQuantile, the
// interpolation Histogram.Quantile uses.
func (b *Buckets) Quantile(q float64) float64 {
	return BucketQuantile(q, b.Bounds, b.Cum, b.Total)
}
