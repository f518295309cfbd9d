package bwaclient

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

// FuzzParseServerTiming: for any Server-Timing value the parser returns,
// without panicking, entries whose names are non-empty and already
// trimmed, and whose durations lie in [0, maxTimingMS] milliseconds.
func FuzzParseServerTiming(f *testing.F) {
	for _, s := range []string{
		"",
		"parse;dur=0.120, admit;dur=0.004, cache;dur=0.031, ttfb;dur=0.412",
		"parse;dur=NaN, admit;dur=Inf, classify;dur=-5, huge;dur=1e300, ok;dur=2.5, bare, ;dur=3, junk;;dur=abc",
		"x;dur=9223372036854, y;dur=9223372036855",
		" \t, ;;, a ;desc=\"b,c\";dur= 7 ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, h string) {
		for i, e := range parseServerTiming(h) {
			if e.Name == "" || e.Name != strings.TrimSpace(e.Name) {
				t.Fatalf("entry %d of %q has name %q", i, h, e.Name)
			}
			if ms := float64(e.Duration) / float64(time.Millisecond); e.Duration < 0 || ms > maxTimingMS {
				t.Fatalf("entry %d (%q) of %q has duration %v", i, e.Name, h, e.Duration)
			}
		}
	})
}

// FuzzRetryWait: for any Retry-After value and any attempt in [0, 63], the
// wait lies in [0, maxRetryWait] — never negative (a hot retry loop) and
// never beyond the cap.
func FuzzRetryWait(f *testing.F) {
	for _, s := range []string{"", "0", "2", "30", "86400", "9999999999999", "-3", "soon", "+5", " 7"} {
		f.Add(s, uint8(0))
		f.Add(s, uint8(63))
	}
	f.Fuzz(func(t *testing.T, ra string, attempt uint8) {
		h := http.Header{}
		h.Set("Retry-After", ra)
		n := int(attempt % 64)
		if got := retryWait(h, n); got < 0 || got > maxRetryWait {
			t.Fatalf("retryWait(Retry-After=%q, attempt %d) = %v", ra, n, got)
		}
	})
}
