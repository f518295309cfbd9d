package ordered

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/testutil"
)

const hdr = "@HDR\n"

// headerTiming is one way a tier hands the writer its SAM header: a replica
// knows the header when it builds the writer, the gateway harvests it from
// an upstream stream after slots may already have completed, and a
// ?header=0 response has none.
type headerTiming struct {
	name        string
	want, early bool
}

var headerTimings = []headerTiming{
	{"no header", false, false},
	{"header at construction", true, true},
	{"late SetHeader", true, false},
}

// newTimed builds a writer over w under one header timing. deliver is to be
// called once the slots are filled: it hands over the header in the late
// timing and is a no-op otherwise. prefix is what the response must start
// with.
func newTimed(w http.ResponseWriter, n int, tm headerTiming) (o *Writer, deliver func(), prefix string) {
	o = New(w, n, tm.want)
	deliver = func() { o.SetHeader([]byte(hdr)) }
	if tm.want {
		prefix = hdr
	}
	if tm.early {
		deliver()
		deliver = func() {}
	}
	return o, deliver, prefix
}

// eachTiming runs body once per header timing, over a recorder and inside a
// goroutine-leak check.
func eachTiming(t *testing.T, n int, body func(t *testing.T, w *httptest.ResponseRecorder, o *Writer, deliver func(), prefix string)) {
	for _, tm := range headerTimings {
		tm := tm
		t.Run(tm.name, func(t *testing.T) {
			base := testutil.Goroutines()
			w := httptest.NewRecorder()
			o, deliver, prefix := newTimed(w, n, tm)
			body(t, w, o, deliver, prefix)
			testutil.CheckGoroutines(t, base, 0)
		})
	}
}

func TestReordersCompletions(t *testing.T) {
	eachTiming(t, 4, func(t *testing.T, w *httptest.ResponseRecorder, o *Writer, deliver func(), prefix string) {
		// Complete out of order; output must be input order.
		o.Complete(2, []byte("two\n"))
		o.Complete(0, []byte("zero\n"))
		o.Complete(3, []byte("three\n"))
		o.Complete(1, []byte("one\n"))
		deliver()
		if err := o.CloseAndWait(); err != nil {
			t.Fatal(err)
		}
		if got, want := w.Body.String(), prefix+"zero\none\ntwo\nthree\n"; got != want {
			t.Fatalf("wrote %q, want %q", got, want)
		}
		if o.Missing() != 0 || o.Written() != int64(w.Body.Len()) {
			t.Fatalf("bookkeeping: missing=%d written=%d", o.Missing(), o.Written())
		}
	})
}

func TestHeaderGate(t *testing.T) {
	eachTiming(t, 2, func(t *testing.T, w *httptest.ResponseRecorder, o *Writer, deliver func(), prefix string) {
		fired := false
		o.OnFirstWrite(func() { fired = true })
		if o.HeaderSet() {
			// Header already in hand: completions may flow at once.
			o.SetHeader([]byte("@WRONG\n")) // a second delivery (a retry) must be ignored
		}
		o.Complete(0, []byte("zero\n"))
		o.Complete(1, []byte("one\n"))
		if prefix != "" && !o.HeaderSet() {
			// All slots are complete but the header has not arrived:
			// nothing may be written yet.
			time.Sleep(20 * time.Millisecond)
			if o.Started() || o.Written() != 0 {
				t.Fatalf("wrote %d bytes before the header arrived", o.Written())
			}
			deliver()
			o.SetHeader([]byte("@WRONG\n"))
		}
		if err := o.CloseAndWait(); err != nil {
			t.Fatal(err)
		}
		if got, want := w.Body.String(), prefix+"zero\none\n"; got != want {
			t.Fatalf("wrote %q, want %q", got, want)
		}
		if !fired {
			t.Fatal("OnFirstWrite never fired")
		}
	})
}

func TestHeaderOnlyResponse(t *testing.T) {
	eachTiming(t, 0, func(t *testing.T, w *httptest.ResponseRecorder, o *Writer, deliver func(), prefix string) {
		deliver()
		if err := o.CloseAndWait(); err != nil {
			t.Fatal(err)
		}
		o.EnsureHeader()
		if got := w.Body.String(); got != prefix {
			t.Fatalf("header-only response %q, want %q", got, prefix)
		}
		if o.Started() != (prefix != "") || o.Written() != int64(len(prefix)) {
			t.Fatalf("bookkeeping: started=%v written=%d", o.Started(), o.Written())
		}
	})
}

// TestCloseWithHoles is the cancellation shape: the request ends with
// slots that will never fill. The contiguous prefix goes out, the writer
// exits instead of waiting for the hole, and Missing meters the loss.
func TestCloseWithHoles(t *testing.T) {
	eachTiming(t, 4, func(t *testing.T, w *httptest.ResponseRecorder, o *Writer, deliver func(), prefix string) {
		o.Complete(0, []byte("zero\n"))
		o.Complete(1, []byte("one\n"))
		o.Complete(3, []byte("three\n"))
		deliver()
		if err := o.CloseAndWait(); err != nil {
			t.Fatal(err)
		}
		if got, want := w.Body.String(), prefix+"zero\none\n"; got != want {
			t.Fatalf("wrote %q, want %q", got, want)
		}
		if !o.Started() || o.Missing() != 1 {
			t.Fatalf("started=%v missing=%d, want true and 1", o.Started(), o.Missing())
		}
	})
}

// TestCloseBeforeHeaderArrives: a wanted header that never comes (the
// gateway's header-owning upstream died) must leave the status
// uncommitted, so the handler can still answer with an error envelope.
func TestCloseBeforeHeaderArrives(t *testing.T) {
	base := testutil.Goroutines()
	w := httptest.NewRecorder()
	o := New(w, 2, true)
	o.Complete(0, []byte("zero\n"))
	if err := o.CloseAndWait(); err != nil {
		t.Fatal(err)
	}
	o.EnsureHeader()
	if o.Started() || w.Body.Len() != 0 || o.Missing() != 1 {
		t.Fatalf("started=%v wrote %q missing=%d", o.Started(), w.Body.String(), o.Missing())
	}
	testutil.CheckGoroutines(t, base, 0)
}

// failAfterWriter fails every write after the first n bytes, standing in
// for a client that went away mid-response.
type failAfterWriter struct {
	httptest.ResponseRecorder
	n int
}

func (f *failAfterWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, fmt.Errorf("client gone")
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, fmt.Errorf("client gone")
	}
	f.n -= len(p)
	return f.ResponseRecorder.Write(p)
}

func TestStickyWriteError(t *testing.T) {
	for _, tm := range headerTimings {
		tm := tm
		t.Run(tm.name, func(t *testing.T) {
			base := testutil.Goroutines()
			w := &failAfterWriter{ResponseRecorder: *httptest.NewRecorder(), n: 7}
			o, deliver, _ := newTimed(w, 3, tm)
			o.Complete(0, []byte("0123456789\n"))
			o.Complete(1, []byte("x\n"))
			o.Complete(2, []byte("y\n"))
			deliver()
			err := o.CloseAndWait()
			if err == nil {
				t.Fatal("write error not surfaced by CloseAndWait")
			}
			if !o.Started() {
				t.Fatal("Started() false after a partial write")
			}
			if o.Written() != 7 {
				t.Fatalf("Written() = %d, want the 7 bytes that reached the wire", o.Written())
			}
			o.EnsureHeader() // must not write into the failed stream
			if o.Written() != 7 {
				t.Fatalf("EnsureHeader wrote after a sticky error (Written = %d)", o.Written())
			}
			testutil.CheckGoroutines(t, base, 0)
		})
	}
}

// blockedWriter is a client that stopped reading: Write parks until
// release is closed.
type blockedWriter struct {
	httptest.ResponseRecorder
	entered chan struct{} // closed when the first Write parks
	release chan struct{}
}

func (b *blockedWriter) Write(p []byte) (int, error) {
	select {
	case <-b.entered:
	default:
		close(b.entered)
	}
	<-b.release
	return b.ResponseRecorder.Write(p)
}

// TestCompleteNeverBlocksOnClient: with the writer goroutine parked in a
// socket write, every remaining Complete must still return — records pile
// up in slots, the caller (a shared pool worker) is never held.
func TestCompleteNeverBlocksOnClient(t *testing.T) {
	base := testutil.Goroutines()
	const n = 64
	w := &blockedWriter{ResponseRecorder: *httptest.NewRecorder(),
		entered: make(chan struct{}), release: make(chan struct{})}
	o := New(w, n, false)
	o.Complete(0, []byte("r0\n"))
	<-w.entered // the writer is now stuck on the client

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := n - 1; i >= 1; i-- {
			o.Complete(i, []byte(fmt.Sprintf("r%d\n", i)))
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Complete blocked behind a client that stopped reading")
	}
	if o.Missing() != 0 {
		t.Fatalf("missing = %d after every slot was completed", o.Missing())
	}

	close(w.release)
	if err := o.CloseAndWait(); err != nil {
		t.Fatal(err)
	}
	want := ""
	for i := 0; i < n; i++ {
		want += fmt.Sprintf("r%d\n", i)
	}
	if got := w.Body.String(); got != want {
		t.Fatalf("wrote %q, want %q", got, want)
	}
	testutil.CheckGoroutines(t, base, 0)
}
