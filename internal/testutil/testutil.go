// Package testutil holds the small test helpers the serving-path tests
// share: bounded condition polling (replacing ad-hoc sleep loops) and a
// goroutine-leak checker with grace retries (background goroutines — HTTP
// keep-alive reapers, timer callbacks, scheduler workers mid-teardown —
// need a few milliseconds to unwind before a count comparison is fair),
// plus SyncBuffer, a log sink servers write while a test reads it.
package testutil

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"
)

// pollEvery is the condition re-check interval for Eventually/WaitUntil:
// fine enough that tests do not dawdle, coarse enough not to busy-spin.
const pollEvery = time.Millisecond

// Eventually polls cond until it reports true or timeout elapses, and
// returns the final answer. Use it where a test tolerates the condition
// never holding (e.g. a request that may finish before it can be observed
// in flight); use WaitUntil when the condition is mandatory.
func Eventually(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(pollEvery)
	}
}

// WaitUntil polls cond until it reports true, failing the test if timeout
// elapses first.
func WaitUntil(t testing.TB, timeout time.Duration, cond func() bool, format string, args ...any) {
	t.Helper()
	if !Eventually(timeout, cond) {
		t.Fatalf(format, args...)
	}
}

// Goroutines snapshots the current goroutine count. Take it before the
// code under test starts anything, pass it to CheckGoroutines after
// teardown.
func Goroutines() int { return runtime.NumGoroutine() }

// leakGrace bounds how long CheckGoroutines waits for stragglers to
// unwind before declaring a leak.
const leakGrace = 5 * time.Second

// CheckGoroutines asserts the goroutine count has returned to within
// slack of the baseline snapshot. Goroutines that are shutting down but
// not yet gone are not leaks, so the check retries with short sleeps (and
// a GC cycle, which runs finalizers that close lingering resources) for
// up to leakGrace before failing; on failure it dumps all goroutine
// stacks so the leaked one is identifiable.
func CheckGoroutines(t testing.TB, baseline, slack int) {
	t.Helper()
	limit := baseline + slack
	var n int
	ok := Eventually(leakGrace, func() bool {
		n = runtime.NumGoroutine()
		if n <= limit {
			return true
		}
		runtime.GC()
		return false
	})
	if ok {
		return
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	t.Fatalf("goroutine leak: %d running, baseline %d (slack %d)\n%s", n, baseline, slack, buf)
}

// SyncBuffer is a bytes.Buffer that a server's goroutines may write while
// the test reads it.
type SyncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *SyncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *SyncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
