package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/ordered"
	"repro/internal/pipeline"
	"repro/internal/seq"
)

// maxBodyBytes is the hard ceiling on request bodies. The effective limit
// is derived from the tier's read caps (see requestBodyLimit) so a parse
// can never materialize far more reads than admission would accept.
const maxBodyBytes = 1 << 30

// maxNameLen is the longest read name validName accepts (SAM's QNAME).
const maxNameLen = 254

// requestBodyLimit bounds a request body by what the read caps could
// legitimately need: maxReads reads of maxReadLen bases each, as a JSON
// encoder that escapes like json.Marshal (bwaclient's) writes them at
// worst. A base is one byte, but a quality or name byte '<', '>' or '&' is
// the six bytes \u003c, so a read takes 7 bytes per base, 6 per name byte
// and its keys. FASTQ needs less.
func requestBodyLimit(maxReads, maxReadLen int) int64 {
	per := 7*int64(maxReadLen) + 6*maxNameLen + int64(len(`{"name":"","seq":"","qual":""},`))
	limit := int64(maxReads) * per
	if limit <= 0 || limit > maxBodyBytes {
		limit = maxBodyBytes
	}
	return limit
}

// A JSON align body is one object holding read arrays — "reads" for
// /v1/align, "reads1" and "reads2" (pair i is reads1[i], reads2[i]) for
// /v1/align/paired — of objects {"name": "...", "seq": "ACGT...",
// "qual": "IIII..."} with qual optional. seq.DecodeJSONReads streams it
// (the accepted JSON is encoding/json's) and seq.AppendJSONRead is the
// client's encoder.

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
	if len(s) == 0 || len(s) > maxNameLen {
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

// admit is the replica's admission step of the shared intake: it charges
// n reads against the in-flight budget, answering the rejection itself
// when the request cannot proceed, and times the gate.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, n int) bool {
	tAdmit := time.Now()
	err := s.adm.TryAcquire(n)
	s.hists.admissionWait.Observe(time.Since(tAdmit))
	switch err {
	case nil:
		info := reqInfoFrom(r)
		info.Span().Observe("admit", tAdmit)
		info.setReads(n)
		return true
	case errDraining:
		s.met.RejectDraining(w, r)
	default: // errQueueFull
		s.met.rejectedFull.Add(1)
		w.Header().Set("Retry-After", "1")
		WriteError(w, r, http.StatusTooManyRequests, codeOverloaded,
			fmt.Sprintf("admission queue full (%d reads in flight, limit %d)",
				s.adm.InFlight(), s.cfg.MaxInFlightReads))
	}
	return false
}

// finishStream closes out a streamed alignment: it retires the writer
// goroutine (mandatory before the handler returns), then handles the
// cancellation bookkeeping. readsPerRecord converts the streamer's record
// count to reads (1 single-end, 2 paired) so dropped work is metered in
// the same unit admission charges. The streamed bytes (header included)
// are counted into SAMBytes either way.
func (s *Server) finishStream(w http.ResponseWriter, r *http.Request, st *ordered.Writer, readsPerRecord int, err error) {
	st.CloseAndWait()
	defer s.met.SAMBytes.Add(st.Written())
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
	if l := s.logger.Load(); l != nil {
		l.LogAttrs(r.Context(), slog.LevelWarn, "request cancelled",
			slog.String("request_id", RequestID(r.Context())), slog.String("error", err.Error()),
			slog.Int64("reads_dropped", dropped), slog.Int64("bytes_streamed", st.Written()))
	}
	if !st.Started() {
		if errors.Is(err, context.DeadlineExceeded) {
			WriteError(w, r, http.StatusGatewayTimeout, codeDeadlineExceeded,
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
// request's reads go through the result cache when it is on, and the rest
// are cut into scheduler tasks of at most BatchSize reads that share the
// worker pool with every other request (cache.go). The method check
// happens in the route wrapper (api.go).
func (s *Server) handleAlign(w http.ResponseWriter, r *http.Request) {
	span := reqInfoFrom(r).Span()
	reads, _, ok := s.met.Intake(w, r, false, s.cfg.MaxReadsPerRequest, s.cfg.MaxReadLen, span, s.admit)
	if !ok {
		return
	}
	defer s.adm.Release(len(reads))

	ctx, cancel := s.requestContext(r)
	defer cancel()
	st := NewSAMStream(w, r, len(reads), span, &s.hists.ttfb)
	st.SetHeader(s.samHeader)
	tAlign := time.Now()
	err := s.alignSingle(ctx, reads, st, span)
	span.Observe("align", tAlign)
	s.finishStream(w, r, st, 1, err)
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
	r1, r2, ok := s.met.Intake(w, r, true, s.cfg.MaxReadsPerRequest, s.cfg.MaxReadLen, span, s.admit)
	if !ok {
		return
	}
	defer s.adm.Release(len(r1) + len(r2))

	ctx, cancel := s.requestContext(r)
	defer cancel()
	st := NewSAMStream(w, r, len(r1), span, &s.hists.ttfb)
	st.SetHeader(s.samHeader)
	tAlign := time.Now()
	_, err := pipeline.RunPairedStreamOn(ctx, s.sched, r1, r2,
		pipeline.Config{BatchSize: s.cfg.BatchSize}, st.Complete)
	span.Observe("align", tAlign)
	s.finishStream(w, r, st, 2, err)
}
