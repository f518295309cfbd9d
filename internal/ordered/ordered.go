// Package ordered holds the one in-order slot writer both serving tiers
// stream SAM through: the replica fills slots from pool workers and cache
// hits (internal/server), the gateway fills them from per-replica
// sub-streams (internal/gateway).
package ordered

import (
	"net/http"
	"sync"
)

// Writer turns out-of-order per-slot completions into an in-order chunked
// response. Slot i holds the complete record group of input read (or pair)
// i, delivered via Complete(i, rec) as soon as it is rendered; a
// request-owned writer goroutine drains the longest contiguous completed
// prefix to the client and flushes it, so the first bytes of a large
// response leave while most of the request is still being aligned.
// Completion order is unconstrained: a replica's result-cache hits complete
// their slots at dispatch time, before any batch has run.
//
// When the response wants a SAM header, nothing is written until SetHeader
// delivers it — at once on a replica, which knows its header, and from
// whichever upstream stream was asked to produce it on the gateway.
//
// The socket write happens ONLY on the writer goroutine, never on the
// caller of Complete: Complete is O(1) bookkeeping under a mutex, so a
// client that stops reading its response (TCP backpressure) blocks its own
// writer goroutine and nothing else — records for it pile up in slots while
// the shared workers keep serving other requests. The first write error is
// sticky and stops all further writes, and Written counts every byte
// actually put on the wire, header included.
type Writer struct {
	w          http.ResponseWriter
	flusher    http.Flusher  // nil when w cannot flush
	wantHeader bool          // response must start with the SAM header
	notify     chan struct{} // capacity 1: progress wake-up
	wg         sync.WaitGroup

	mu        sync.Mutex
	header    []byte // nil until SetHeader
	headerSet bool
	started   bool     // some bytes written; the HTTP status is committed
	slots     [][]byte // completed-but-unwritten records, nil once taken
	ready     []bool
	completed int // slots delivered via Complete
	next      int // first slot not yet handed to the writer
	closed    bool
	written   int64
	err       error  // first write error; sticky
	onFirst   func() // runs once, just before the first body write
}

// New builds a writer for n slots to w and starts its writer goroutine.
// CloseAndWait must be called before the handler returns. When wantHeader
// is set, nothing is written until SetHeader delivers the header.
func New(w http.ResponseWriter, n int, wantHeader bool) *Writer {
	o := &Writer{w: w, wantHeader: wantHeader,
		notify: make(chan struct{}, 1),
		slots:  make([][]byte, n), ready: make([]bool, n)}
	if f, ok := w.(http.Flusher); ok {
		o.flusher = f
	}
	o.wg.Add(1)
	go o.writeLoop()
	return o
}

// OnFirstWrite registers fn to run exactly once, immediately before the
// first response byte goes out — the last moment response headers are
// still mutable. It runs on the writer goroutine (or the handler
// goroutine, for the bare-header EnsureHeader path) and must not call back
// into the writer. Register before any Complete call.
func (o *Writer) OnFirstWrite(fn func()) {
	o.mu.Lock()
	o.onFirst = fn
	o.mu.Unlock()
}

// SetHeader delivers the SAM header. Only the first call takes effect (a
// retried partition must not deliver it twice). No-op when the response
// wants no header.
func (o *Writer) SetHeader(hdr []byte) {
	o.mu.Lock()
	if o.headerSet || !o.wantHeader {
		o.mu.Unlock()
		return
	}
	o.header = hdr
	o.headerSet = true
	o.mu.Unlock()
	o.signal()
}

// HeaderSet reports whether the header has been delivered — a gateway
// retry uses it to decide whether to re-request the header upstream.
func (o *Writer) HeaderSet() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.headerSet
}

// Complete delivers slot i. Safe for concurrent use from many goroutines;
// each index must be delivered at most once. It never blocks on the
// client: it only files the record and wakes the writer when the record
// extends the contiguous prefix.
func (o *Writer) Complete(i int, rec []byte) {
	o.mu.Lock()
	o.slots[i] = rec
	o.ready[i] = true
	o.completed++
	wake := i == o.next
	o.mu.Unlock()
	if wake {
		o.signal()
	}
}

// signal wakes the writer without blocking (a pending token suffices).
func (o *Writer) signal() {
	select {
	case o.notify <- struct{}{}:
	default:
	}
}

// writeLoop is the request-owned writer: it drains contiguous completed
// runs — gated on the header when one is wanted — and writes them as one
// chunk each, flushing between chunks. It exits when every slot is
// written, on the first write error, or when the writer is closed with no
// more contiguous work (cancellation left holes that will never fill).
func (o *Writer) writeLoop() {
	defer o.wg.Done()
	for {
		o.mu.Lock()
		var chunk [][]byte
		open := o.headerSet || !o.wantHeader
		if open {
			for o.next < len(o.ready) && o.ready[o.next] {
				chunk = append(chunk, o.slots[o.next])
				o.slots[o.next] = nil
				o.next++
			}
		}
		finished := open && o.next == len(o.ready)
		closed := o.closed
		failed := o.err != nil
		o.mu.Unlock()

		if len(chunk) > 0 && !failed {
			failed = !o.writeChunk(chunk)
		}
		switch {
		case finished || failed || (closed && len(chunk) == 0):
			return
		case len(chunk) > 0:
			continue // more may have completed while writing
		}
		<-o.notify
	}
}

// writeChunk writes one contiguous run (header first when it is the very
// first write), updating the byte count and sticky error. Reports success.
func (o *Writer) writeChunk(chunk [][]byte) bool {
	o.mu.Lock()
	first := !o.started
	o.started = true
	onFirst := o.onFirst
	hdr := o.header
	o.mu.Unlock()
	if first && onFirst != nil {
		onFirst()
	}

	var n int64
	var err error
	if first && len(hdr) > 0 {
		var hn int
		hn, err = o.w.Write(hdr)
		n += int64(hn)
	}
	if err == nil {
		for _, rec := range chunk {
			var rn int
			rn, err = o.w.Write(rec)
			n += int64(rn)
			if err != nil {
				break
			}
		}
	}
	if err == nil && o.flusher != nil {
		o.flusher.Flush()
	}

	o.mu.Lock()
	o.written += n
	if err != nil && o.err == nil {
		o.err = err
	}
	ok := o.err == nil
	o.mu.Unlock()
	return ok
}

// CloseAndWait stops the writer once it runs out of contiguous work and
// waits for it to exit. Must be called before the handler returns — the
// ResponseWriter may not be touched after that. Returns the first write
// error.
func (o *Writer) CloseAndWait() error {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
	o.signal()
	o.wg.Wait()

	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}

// EnsureHeader emits the bare header when no record write did (defensive:
// both tiers reject empty requests). Success path only — after a drain or
// cancellation the handler writes an error status instead. Must be called
// after CloseAndWait (the writer has exited; the caller owns w again).
func (o *Writer) EnsureHeader() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.started && o.err == nil && len(o.header) > 0 {
		o.started = true
		if o.onFirst != nil {
			// Safe under the lock: the hook never calls back into the
			// writer, and the writer goroutine has already exited.
			o.onFirst()
		}
		n, err := o.w.Write(o.header)
		o.written += int64(n)
		o.err = err
		if o.err == nil && o.flusher != nil {
			o.flusher.Flush()
		}
	}
}

// Written returns the bytes actually written so far, header included.
func (o *Writer) Written() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.written
}

// Started reports whether any byte (and so the HTTP status) went out.
func (o *Writer) Started() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.started
}

// Missing returns how many slots were never delivered — on a cancelled
// request, the reads/pairs whose alignment was abandoned.
func (o *Writer) Missing() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.slots) - o.completed
}
