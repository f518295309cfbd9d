package bench

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call into a layer, recorded by this package around the
// layer's exported function — the program itself is not instrumented.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // ID of the span that caused this one, -1 at the top
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"` // since the tracer was created
	End      int64  `json:"end_ns"`
	Count    int    `json:"count"` // work items the call handled: reads, jobs, lookups
}

// Tracer keeps spans in memory until the run ends. It is for one goroutine:
// the span open at Begin is the new span's parent. A nil Tracer records
// nothing, which is how the same loop runs untraced.
type Tracer struct {
	workload string
	t0       time.Time
	spans    []Span
	open     []int
}

// NewTracer returns a tracer whose spans carry the workload's name.
func NewTracer(workload string) *Tracer {
	return &Tracer{workload: workload, t0: time.Now(), spans: make([]Span, 0, 1<<16)}
}

// Begin opens a span under the innermost open one.
func (t *Tracer) Begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Workload: t.workload})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

// End closes the innermost open span, which must be id.
func (t *Tracer) End(id, count int) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.t0))
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("bench: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End, t.spans[id].Count = end, count
}

// Spans returns what was recorded.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Sum adds up the spans recorded under name so far (self time left out).
func (t *Tracer) Sum(name string) LayerTime {
	var lt LayerTime
	for _, s := range t.Spans() {
		if s.Name == name {
			lt.Spans++
			lt.Count += s.Count
			lt.Total += s.End - s.Start
		}
	}
	return lt
}

// LayerTime is the spans of one name, added up.
type LayerTime struct {
	Spans int
	Count int   // sum of the spans' work items
	Total int64 // ns inside the spans
	Self  int64 // ns inside the spans and outside their children
}

// SumSpans totals spans by name. A span's self time is its duration minus
// the part of it that its child spans cover; children that overlap each
// other are counted once.
func SumSpans(spans []Span) map[string]LayerTime {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]LayerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.Spans++
		lt.Count += s.Count
		lt.Total += s.End - s.Start
		lt.Self += s.End - s.Start - covered(s, children[s.ID])
		out[s.Name] = lt
	}
	return out
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent Span, kids []Span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	edge := parent.Start // everything before edge is already counted
	for _, k := range kids {
		lo, hi := max(k.Start, edge), min(k.End, parent.End)
		if hi > lo {
			sum += hi - lo
			edge = hi
		}
	}
	return sum
}

// WriteTrace writes spans as one JSON document.
func WriteTrace(path string, spans []Span) error {
	data, err := json.Marshal(struct {
		Spans []Span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
