package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdict is what -compare says about one end-to-end metric on one
// workload.
type Verdict string

const (
	Improved   Verdict = "improved"
	Unchanged  Verdict = "unchanged"
	Regressed  Verdict = "regressed"
	Unresolved Verdict = "unresolved" // a side's own quartile spread exceeds the bound, so the bound cannot be applied
)

// judge compares b (the change) with a (the parent) under def's direction
// and bound. worse is the share of a by which b is worse (negative when it
// is better).
func judge(def MetricDef, a, b Summary) (v Verdict, worse float64) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / a.Value
	}
	if def.Better == higher {
		worse = -worse
	}
	switch {
	case a.Spread() > def.Bound || b.Spread() > def.Bound:
		return Unresolved, worse
	case worse > def.Bound:
		return Regressed, worse
	case worse < -def.Bound:
		return Improved, worse
	}
	return Unchanged, worse
}

// ReadRecord loads a results file written with -out.
func ReadRecord(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// Compare prints a verdict for every pairing of end-to-end metric and
// workload present in both records and reports whether any regressed.
func Compare(a, b *Record, out io.Writer) (regressed bool) {
	byName := map[string]*Result{}
	for _, r := range b.Results {
		byName[r.Workload] = r
	}
	fmt.Fprintf(out, "%-12s %-15s %14s %14s %8s  %s\n", "workload", "metric", "a", "b", "worse", "verdict")
	for _, ra := range a.Results {
		rb, ok := byName[ra.Workload]
		if !ok {
			continue
		}
		for _, def := range EndToEnd {
			ma, okA := ra.Metrics[def.Name]
			mb, okB := rb.Metrics[def.Name]
			if !okA || !okB {
				continue
			}
			v, worse := judge(def, ma, mb)
			regressed = regressed || v == Regressed
			fmt.Fprintf(out, "%-12s %-15s %14.6g %14.6g %+7.2f%%  %s (bound %g%%, spread a %.2f%% b %.2f%%)\n",
				ra.Workload, def.Name, ma.Value, mb.Value, 100*worse, v, 100*def.Bound, 100*ma.Spread(), 100*mb.Spread())
		}
		if ra.Failed != rb.Failed || ra.Correct != rb.Correct {
			fmt.Fprintf(out, "%-12s failed %d/%d correct=%v -> failed %d/%d correct=%v\n", ra.Workload,
				ra.Failed, ra.Attempted, ra.Correct, rb.Failed, rb.Attempted, rb.Correct)
			regressed = regressed || rb.Failed > ra.Failed || (ra.Correct && !rb.Correct)
		}
		if ra.SAMDigest != rb.SAMDigest && ra.InputDigest == rb.InputDigest {
			fmt.Fprintf(out, "%-12s same inputs, different SAM digest: %s -> %s\n", ra.Workload, ra.SAMDigest, rb.SAMDigest)
		}
	}
	return regressed
}
