package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanRecording(t *testing.T) {
	start := time.Now().Add(-50 * time.Millisecond)
	s := NewSpan(start)
	s.Observe("parse", start)                          // ~50ms phase at offset 0
	s.Observe("admit", start.Add(40*time.Millisecond)) // ~10ms phase at offset 40ms
	s.Mark("ttfb")                                     // instant at ~50ms

	ph := s.Phases()
	if len(ph) != 3 {
		t.Fatalf("got %d phases, want 3", len(ph))
	}
	if ph[0].Name != "parse" || ph[0].Offset != 0 || ph[0].Seconds < 0.045 {
		t.Errorf("parse phase wrong: %+v", ph[0])
	}
	if ph[1].Name != "admit" || ph[1].Offset < 0.035 || ph[1].Seconds < 0.005 {
		t.Errorf("admit phase wrong: %+v", ph[1])
	}
	if ph[2].Name != "ttfb" || ph[2].Seconds != 0 || ph[2].Offset < 0.045 {
		t.Errorf("ttfb mark wrong: %+v", ph[2])
	}

	hdr := ServerTimingValue(ph)
	if !strings.HasPrefix(hdr, "parse;dur=") || !strings.Contains(hdr, ", admit;dur=") ||
		!strings.Contains(hdr, ", ttfb;dur=") {
		t.Errorf("Server-Timing value malformed: %s", hdr)
	}

	var nilSpan *Span
	nilSpan.Observe("x", time.Now())
	nilSpan.Mark("y")
	if nilSpan.Phases() != nil {
		t.Error("nil span should have no phases")
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(3)
	for i := 1; i <= 5; i++ {
		r.Add(Trace{RequestID: string(rune('a' + i - 1)), Seconds: float64(i % 3)})
	}
	recent, slowest := r.Snapshot()
	if len(recent) != 3 {
		t.Fatalf("recent len %d, want 3", len(recent))
	}
	// Most recent first: e (5th), d, c.
	if recent[0].RequestID != "e" || recent[1].RequestID != "d" || recent[2].RequestID != "c" {
		t.Errorf("recent order wrong: %v %v %v", recent[0].RequestID, recent[1].RequestID, recent[2].RequestID)
	}
	// Durations: a=1, b=2, c=0, d=1, e=2. Slowest 3: 2,2,1.
	if len(slowest) != 3 {
		t.Fatalf("slowest len %d, want 3", len(slowest))
	}
	if slowest[0].Seconds != 2 || slowest[1].Seconds != 2 || slowest[2].Seconds != 1 {
		t.Errorf("slowest order wrong: %v %v %v", slowest[0].Seconds, slowest[1].Seconds, slowest[2].Seconds)
	}
	if r.Capacity() != 3 {
		t.Errorf("capacity %d", r.Capacity())
	}

	var nilRing *TraceRing
	nilRing.Add(Trace{})
	rec, slow := nilRing.Snapshot()
	if rec != nil || slow != nil || nilRing.Capacity() != 0 {
		t.Error("nil ring should read as empty")
	}
}

func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Add(Trace{Status: 200, Seconds: float64(i)})
				if i%50 == 0 {
					r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	recent, slowest := r.Snapshot()
	if len(recent) != 16 || len(slowest) != 16 {
		t.Fatalf("snapshot sizes %d/%d, want 16/16", len(recent), len(slowest))
	}
	// The slowest list must hold the global maxima: every goroutine wrote
	// 499 as its top duration, so all 8 of those plus the next tier.
	if slowest[0].Seconds != 499 {
		t.Errorf("slowest[0] = %v, want 499", slowest[0].Seconds)
	}
}

func TestWriteRuntimeMetrics(t *testing.T) {
	var b strings.Builder
	if err := WriteRuntimeMetrics(&b, "x"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"x_go_goroutines ", "x_go_heap_alloc_bytes ", "x_go_heap_sys_bytes ",
		"x_go_heap_objects ", "x_go_gcs_total ", "x_go_gc_pause_seconds_total ",
	} {
		if !strings.Contains(b.String(), name) {
			t.Errorf("runtime metrics missing %q in:\n%s", name, b.String())
		}
	}
}
