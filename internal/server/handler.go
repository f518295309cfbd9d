package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/ordered"
	"repro/internal/pipeline"
	"repro/internal/seq"
)

// maxBodyBytes is the hard ceiling on request bodies. The effective limit
// is derived per deployment from the resolved ServerConfig (see
// requestBodyLimit) so a parse can never materialize far more reads than
// admission would accept.
const maxBodyBytes = 1 << 30

// requestBodyLimit bounds a request body by what the read caps could
// legitimately need: MaxReadsPerRequest reads of MaxReadLen bases each,
// with headroom for names, qualities, and JSON quoting.
func requestBodyLimit(maxReads, maxReadLen int) int64 {
	per := 2*int64(maxReadLen) + 512
	limit := int64(maxReads) * per
	if limit <= 0 || limit > maxBodyBytes {
		limit = maxBodyBytes
	}
	return limit
}

// jsonRead is the wire form of one read in JSON request bodies. Decoding is
// incremental (seq.DecodeJSONReads); these types document the schema and
// serve as client-side marshaling helpers.
type jsonRead struct {
	Name string `json:"name"`
	Seq  string `json:"seq"`
	Qual string `json:"qual,omitempty"`
}

type singleRequest struct {
	Reads []jsonRead `json:"reads"`
}

type pairedRequest struct {
	Reads1 []jsonRead `json:"reads1"`
	Reads2 []jsonRead `json:"reads2"`
}

// errReadTooLong marks a policy rejection (mapped to 413) rather than a
// malformed input (400).
var errReadTooLong = errors.New("read exceeds length limit")

// errTooManyReads marks a mid-decode rejection of a request exceeding
// MaxReadsPerRequest: the decoder stops at the first read over the cap
// without consuming the rest of the body. Mapped to 413.
var errTooManyReads = errors.New("request exceeds per-request read limit")

// validateRead enforces the input policy on every decode path (JSON and
// FASTQ alike), read by read as the body streams in: SAM emits
// name/seq/qual verbatim, so whitespace or control bytes in any of them
// would let a caller inject extra SAM fields or records into the response —
// an empty sequence produces a record no SAM parser accepts — and admission
// charges per read, so a length cap keeps one giant read from occupying a
// worker far beyond its budgeted share.
func validateRead(r *seq.Read, i, maxLen int) error {
	if len(r.Seq) == 0 {
		return fmt.Errorf("read %d (%q): empty sequence", i, r.Name)
	}
	if len(r.Seq) > maxLen {
		return fmt.Errorf("read %d (%q): %d bases, limit %d: %w", i, r.Name, len(r.Seq), maxLen, errReadTooLong)
	}
	if !validName(r.Name) {
		return fmt.Errorf("read %d: name %q is not a valid SAM query name", i, r.Name)
	}
	if !validSeq(r.Seq) {
		return fmt.Errorf("read %d (%q): sequence contains characters outside the SAM SEQ alphabet", i, r.Name)
	}
	if r.Qual != nil {
		if len(r.Qual) != len(r.Seq) {
			return fmt.Errorf("read %d (%q): quality length %d != sequence length %d",
				i, r.Name, len(r.Qual), len(r.Seq))
		}
		if !printable(r.Qual) {
			return fmt.Errorf("read %d (%q): quality contains non-printable characters", i, r.Name)
		}
	}
	return nil
}

// printable reports whether s holds only graphic ASCII (the character set
// SAM fields may carry).
func printable(s []byte) bool {
	for _, b := range s {
		if b < '!' || b > '~' {
			return false
		}
	}
	return true
}

// validSeq enforces the SAM SEQ grammar, [A-Za-z=.]+ (SAM output carries
// the sequence verbatim, so anything else would make the response
// unparseable downstream).
func validSeq(s []byte) bool {
	for _, b := range s {
		switch {
		case b >= 'A' && b <= 'Z', b >= 'a' && b <= 'z', b == '=', b == '.':
		default:
			return false
		}
	}
	return true
}

// validName enforces the SAM QNAME grammar, [!-?A-~]{1,254}: graphic
// ASCII excluding '@', which would let a record's first field masquerade
// as a header line.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 254 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '!' || s[i] > '~' || s[i] == '@' {
			return false
		}
	}
	return true
}

// basePairName strips a trailing /1 or /2 end suffix, the convention for
// naming the two ends of a pair in FASTQ.
func basePairName(name string) string {
	if n := len(name); n > 2 && name[n-2] == '/' && (name[n-1] == '1' || name[n-1] == '2') {
		return name[:n-2]
	}
	return name
}

// wantHeader reports whether the response should start with the SAM header
// (default yes; ?header=0 yields records only, byte-identical to
// pipeline.Run's Result.SAM).
func wantHeader(r *http.Request) bool {
	v := r.URL.Query().Get("header")
	return v != "0" && v != "false"
}

// newStream starts the in-order response writer for n records (reads or
// pairs), handing it the SAM header up front when the request wants one.
// finishStream must retire it before the handler returns.
func (s *Server) newStream(w http.ResponseWriter, r *http.Request, n int) *ordered.Writer {
	st := ordered.New(w, n, wantHeader(r))
	st.SetHeader(s.samHeader)
	return st
}

// capErr is the rejection for the read that would exceed the request cap.
func capErr(max int) error {
	return fmt.Errorf("request holds more than %d reads: %w", max, errTooManyReads)
}

// scanFastq decodes FASTQ incrementally, validating each read and
// enforcing the request read cap as records arrive, so an over-limit body
// is rejected at read max+1 without consuming the remainder.
func scanFastq(body io.Reader, max, maxLen int) ([]seq.Read, error) {
	sc := seq.NewFastqScanner(body)
	var reads []seq.Read
	for sc.Scan() {
		if len(reads) >= max {
			return nil, capErr(max)
		}
		rd := sc.Record()
		if err := validateRead(&rd, len(reads), maxLen); err != nil {
			return nil, err
		}
		reads = append(reads, rd)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return reads, nil
}

// parseSingle extracts and validates the read set of a single-end request,
// streaming the decode so caps and validation apply mid-body. asJSON is
// the negotiated body family (alignBodyKind). The decode itself lives in
// wire.go (ParseSingleReads), shared with the gateway tier.
func (s *Server) parseSingle(r *http.Request, asJSON bool) ([]seq.Read, error) {
	return ParseSingleReads(r.Body, asJSON, s.cfg.MaxReadsPerRequest, s.cfg.MaxReadLen)
}

// parsePaired extracts both read sets of a paired-end request. The raw
// form is interleaved FASTQ (end 1 of pair 1, end 2 of pair 1, ...). The
// decode streams — the total read cap and per-read validation apply as the
// body arrives — and pair names must agree (after /1,/2 suffix stripping):
// misordered interleaved input would otherwise silently produce wrong
// pairings. The decode itself lives in wire.go (ParsePairedReads), shared
// with the gateway tier.
func (s *Server) parsePaired(r *http.Request, asJSON bool) (r1, r2 []seq.Read, err error) {
	return ParsePairedReads(r.Body, asJSON, s.cfg.MaxReadsPerRequest, s.cfg.MaxReadLen)
}

// rejectParse writes the response for a body that could not be accepted,
// distinguishing size-policy rejections (413) from malformed input (400).
func (s *Server) rejectParse(w http.ResponseWriter, r *http.Request, err error) {
	status, code, message := ClassifyParseError(err)
	if status == http.StatusRequestEntityTooLarge {
		s.met.rejectedLarge.Add(1)
	} else {
		s.met.badRequests.Add(1)
	}
	s.apiError(w, r, status, code, message)
}

// admit runs the admission checks for n reads, writing the rejection
// response itself when the request cannot proceed.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, n int) bool {
	if n == 0 {
		s.met.badRequests.Add(1)
		s.apiError(w, r, http.StatusBadRequest, codeBadRequest, "no reads in request")
		return false
	}
	if n > s.cfg.MaxReadsPerRequest {
		s.met.rejectedLarge.Add(1)
		s.apiError(w, r, http.StatusRequestEntityTooLarge, codeTooLarge,
			fmt.Sprintf("request holds %d reads, limit %d", n, s.cfg.MaxReadsPerRequest))
		return false
	}
	switch err := s.adm.TryAcquire(n); err {
	case nil:
		return true
	case errDraining:
		s.met.rejectedDrain.Add(1)
		s.apiError(w, r, http.StatusServiceUnavailable, codeDraining, "server is shutting down")
		return false
	default: // errQueueFull
		s.met.rejectedFull.Add(1)
		w.Header().Set("Retry-After", "1")
		s.apiError(w, r, http.StatusTooManyRequests, codeOverloaded,
			fmt.Sprintf("admission queue full (%d reads in flight, limit %d)",
				s.adm.InFlight(), s.cfg.MaxInFlightReads))
		return false
	}
}

// finishStream closes out a streamed alignment: it retires the writer
// goroutine (mandatory before the handler returns), then handles the
// cancellation bookkeeping. readsPerRecord converts the streamer's record
// count to reads (1 single-end, 2 paired) so dropped work is metered in
// the same unit admission charges. The streamed bytes (header included)
// are counted into samBytes either way.
func (s *Server) finishStream(w http.ResponseWriter, r *http.Request, st *ordered.Writer, readsPerRecord int, err error) {
	st.CloseAndWait()
	defer s.met.samBytes.Add(st.Written())
	if err == nil {
		st.EnsureHeader()
		return
	}
	// The request's context ended: client disconnect or deadline. Any
	// not-yet-started work was dropped; if nothing was written yet a
	// deadline can still be reported (the envelope), otherwise the
	// response is truncated and the connection must be aborted — a
	// chunked response that just ends would look like a complete SAM
	// document to the client.
	dropped := int64(readsPerRecord) * int64(st.Missing())
	s.met.requestsCancelled.Add(1)
	s.met.readsDropped.Add(dropped)
	s.logf("request %s cancelled (%v): %d reads dropped, %d bytes streamed",
		requestID(r.Context()), err, dropped, st.Written())
	if l := s.logger.Load(); l != nil {
		l.Warn("request cancelled",
			"request_id", requestID(r.Context()), "error", err.Error(),
			"reads_dropped", dropped, "bytes_streamed", st.Written())
	}
	if !st.Started() {
		if errors.Is(err, context.DeadlineExceeded) {
			s.apiError(w, r, http.StatusGatewayTimeout, codeDeadlineExceeded,
				"request deadline exceeded before alignment completed")
		}
	} else if st.Missing() > 0 {
		// Status already committed mid-stream: abort the connection so
		// the client observes an error instead of a clean EOF on an
		// incomplete record set. net/http recovers this sentinel and
		// resets the connection without logging a stack.
		panic(http.ErrAbortHandler)
	}
}

// handleAlign serves POST /v1/align (alias /align): single-end reads in
// (FASTQ or JSON), SAM out, streamed — records leave in input order as
// reads are formatted, while later reads are still being aligned. The
// request's reads are cut into scheduler tasks of at most BatchSize reads
// that share the worker pool with every other request. The method check
// happens in the route wrapper (api.go).
func (s *Server) handleAlign(w http.ResponseWriter, r *http.Request) {
	span := reqInfoFrom(r).Span()
	asJSON, err := alignBodyKind(r)
	if err != nil {
		s.met.badRequests.Add(1)
		s.apiError(w, r, http.StatusUnsupportedMediaType, codeUnsupportedMedia, err.Error())
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.bodyLimit)
	tParse := time.Now()
	reads, err := s.parseSingle(r, asJSON)
	if err != nil {
		s.rejectParse(w, r, err)
		return
	}
	span.Observe("parse", tParse)
	tAdmit := time.Now()
	admitted := s.admit(w, r, len(reads))
	s.hists.admissionWait.Observe(time.Since(tAdmit))
	if !admitted {
		return
	}
	span.Observe("admit", tAdmit)
	reqInfoFrom(r).setReads(len(reads))
	defer s.adm.Release(len(reads))
	s.met.singleRequests.Add(1)
	s.met.readsTotal.Add(int64(len(reads)))

	ctx, cancel := s.requestContext(r)
	defer cancel()
	w.Header().Set("Content-Type", "text/x-sam")
	st := s.newStream(w, r, len(reads))
	s.armServerTiming(w, st, span)
	tAlign := time.Now()
	if s.cache != nil {
		// Result cache between admission and the pool: duplicate sequences
		// are served from cached regions (re-rendered with this read's
		// name, so output is byte-identical) or single-flighted behind an
		// identical in-flight read. See cache.go.
		err = s.alignCached(ctx, reads, st, span)
	} else {
		s.met.batches.Add(int64((len(reads) + s.cfg.BatchSize - 1) / s.cfg.BatchSize))
		_, err = pipeline.RunStreamOn(ctx, s.sched, reads,
			pipeline.Config{BatchSize: s.cfg.BatchSize}, st.Complete)
	}
	span.Observe("align", tAlign)
	s.finishStream(w, r, st, 1, err)
}

// armServerTiming hooks the streamer's first body write: the Server-Timing
// header must be committed before any byte goes out, so it carries the
// phases known at that instant (parse, admit, cache classify) plus the
// time-to-first-byte mark — the full timeline, align included, lands in
// the histograms and the debug trace ring instead. The hook runs on the
// request-owned writer goroutine; the handler goroutine is blocked in the
// align call and does not touch headers until the streamer is retired, so
// the header map is never written concurrently.
func (s *Server) armServerTiming(w http.ResponseWriter, st *ordered.Writer, span *obs.Span) {
	if span == nil {
		return
	}
	hdr := w.Header()
	st.OnFirstWrite(func() {
		span.Mark("ttfb")
		s.hists.ttfb.Observe(time.Since(span.Start()))
		hdr.Set("Server-Timing", obs.ServerTimingValue(span.Phases()))
	})
}

// handleAlignPaired serves POST /v1/align/paired (alias /align/paired):
// pairs in (interleaved FASTQ or JSON reads1/reads2), paired SAM out,
// streamed per pair as the pairing
// stage completes. Each request is one paired-run unit — insert-size
// statistics come from this request's pairs alone — but its batches share
// the worker pool with everything else in flight, and a cancelled
// request's unstarted batches are dropped from the queue. Paired requests
// always bypass the result cache: pairing rescue and insert-size inference
// are cross-read state, so a pair's records are not a pure function of one
// read's sequence.
func (s *Server) handleAlignPaired(w http.ResponseWriter, r *http.Request) {
	span := reqInfoFrom(r).Span()
	asJSON, err := alignBodyKind(r)
	if err != nil {
		s.met.badRequests.Add(1)
		s.apiError(w, r, http.StatusUnsupportedMediaType, codeUnsupportedMedia, err.Error())
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.bodyLimit)
	tParse := time.Now()
	r1, r2, err := s.parsePaired(r, asJSON)
	if err != nil {
		s.rejectParse(w, r, err)
		return
	}
	span.Observe("parse", tParse)
	tAdmit := time.Now()
	admitted := s.admit(w, r, len(r1)+len(r2))
	s.hists.admissionWait.Observe(time.Since(tAdmit))
	if !admitted {
		return
	}
	span.Observe("admit", tAdmit)
	reqInfoFrom(r).setReads(len(r1) + len(r2))
	defer s.adm.Release(len(r1) + len(r2))
	s.met.pairedRequests.Add(1)
	s.met.readsTotal.Add(int64(len(r1) + len(r2)))

	ctx, cancel := s.requestContext(r)
	defer cancel()
	w.Header().Set("Content-Type", "text/x-sam")
	st := s.newStream(w, r, len(r1))
	s.armServerTiming(w, st, span)
	tAlign := time.Now()
	_, err = pipeline.RunPairedStreamOn(ctx, s.sched, r1, r2,
		pipeline.Config{BatchSize: s.cfg.BatchSize}, st.Complete)
	span.Observe("align", tAlign)
	s.finishStream(w, r, st, 2, err)
}
