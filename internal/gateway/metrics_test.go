package gateway

import (
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// scrape fetches base's /v1/metrics, returning the body and its parse by
// the obs exposition reader.
func scrape(t testing.TB, base string) (string, obs.Metrics) {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.ParseMetrics(string(body))
	if err != nil {
		t.Fatal(err)
	}
	return string(body), m
}

// servedFleet is a gateway over two replicas that has served one
// single-end and one paired request, so every histogram has observations.
func servedFleet(t *testing.T) (gw string, replicas []string) {
	t.Helper()
	fixture(t)
	g, ts, reps := newFleet(t, 2, Config{})
	waitFor(t, 2*time.Second, func() bool { return g.healthyCount() == 2 }, "replicas never probed up")
	if code, _, body := doPost(t, ts.URL, "/v1/align?header=0", "application/x-fastq", fastqBytes(fx.reads[:40])); code != http.StatusOK {
		t.Fatalf("align: %d %s", code, body)
	}
	if code, _, body := doPost(t, ts.URL, "/v1/align/paired?header=0", "application/x-fastq", fastqBytes(interleave(fx.r1[:10], fx.r2[:10]))); code != http.StatusOK {
		t.Fatalf("paired: %d %s", code, body)
	}
	for _, r := range reps {
		replicas = append(replicas, r.URL)
	}
	return ts.URL, replicas
}

// TestExpositionShape holds both tiers' /v1/metrics, the gateway's over two
// replicas, to the text format's shape: one # TYPE line per family, each
// family's series contiguous, and every histogram's +Inf bucket equal to
// its _count.
func TestExpositionShape(t *testing.T) {
	gw, replicas := servedFleet(t)
	for _, base := range append([]string{gw}, replicas...) {
		body, m := scrape(t, base)
		seen := make(map[string]bool)
		for i, s := range m {
			if i == 0 || s.Family != m[i-1].Family {
				if seen[s.Family] {
					t.Errorf("%s: family %s is not contiguous", base, s.Family)
				}
				if s.Type == "" {
					t.Errorf("%s: family %s has no TYPE line", base, s.Family)
				}
				seen[s.Family] = true
			}
			if s.Type != "histogram" || s.Name != s.Family+"_count" {
				continue
			}
			if b := m.Buckets(s.Family, s.Labels...); b == nil || float64(b.Total) != s.Value {
				t.Errorf("%s: %s%q: _count %v differs from its +Inf bucket", base, s.Family, s.Labels, s.Value)
			}
		}
		if n := strings.Count(body, "# TYPE "); n != len(seen) {
			t.Errorf("%s: %d TYPE lines for %d families", base, n, len(seen))
		}
	}
}

// TestGatewayMetricsREADMEDocDrift locks README.md's gateway metrics table
// to the live exposition, both directions: every family the gateway serves
// has a documented row, and every documented row is still served.
func TestGatewayMetricsREADMEDocDrift(t *testing.T) {
	gw, _ := servedFleet(t)
	_, m := scrape(t, gw)
	live := make(map[string]bool)
	for _, s := range m {
		live[s.Family] = true
	}
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	rowRe := regexp.MustCompile("^\\| `(bwagate_[a-z0-9_]+)[`{]")
	documented := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		if r := rowRe.FindStringSubmatch(line); r != nil {
			documented[r[1]] = true
		}
	}
	if len(documented) == 0 {
		t.Fatal("found no bwagate_ rows in README.md — did the table move?")
	}
	for name := range live {
		if !documented[name] {
			t.Errorf("metric %s is served but missing from README.md's gateway metrics table", name)
		}
	}
	for name := range documented {
		if !live[name] {
			t.Errorf("README.md documents %s but the gateway's /v1/metrics does not serve it", name)
		}
	}
}
