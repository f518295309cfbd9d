package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/ordered"
	"repro/internal/seq"
)

// This file is the front half of an align request, shared by both tiers
// and both request kinds: the intake (body-family negotiation, the body
// bound, the streaming decode with the exact validation messages, the
// rejection classification), the request counters every tier exposes, and
// the start of the in-order SAM response with its Server-Timing hook. The
// gateway (internal/gateway) must answer byte-identically to a single
// bwaserve — 400/413/415 envelopes included — so both tiers run this code
// rather than keeping two copies of the contract in sync by hand. What
// differs per tier is passed in: the admission step (both tiers charge an
// Admission gate, queue.go, the gateway's with an unbounded budget) and the
// span and histogram the timing lands in.

// RequestCounters is the request-plane counter set both tiers embed in
// their metrics and expose under their own prefix.
type RequestCounters struct {
	Single   atomic.Int64 // accepted /align requests
	Paired   atomic.Int64 // accepted /align/paired requests
	Bad      atomic.Int64 // 400/405/415: malformed input, wrong method or media type
	TooLarge atomic.Int64 // 413: body bytes, read count, or read length over limit
	Draining atomic.Int64 // 503: the tier is shutting down
	Reads    atomic.Int64 // reads accepted (each end of a pair counts)
	SAMBytes atomic.Int64 // SAM bytes actually written to clients, headers included
}

// Expose writes the counters as <prefix>_* series, with rejected requests
// of the tier's own reason counted beside the shared reasons.
func (c *RequestCounters) Expose(w *obs.MetricsWriter, prefix, reason string, rejected int64) {
	for i, n := range []int64{c.Single.Load(), c.Paired.Load()} {
		w.Counter(prefix+"_requests_total", float64(n), "kind", [...]string{"single", "paired"}[i])
	}
	for i, n := range []int64{rejected, c.TooLarge.Load(), c.Draining.Load()} {
		w.Counter(prefix+"_requests_rejected_total", float64(n), "reason", [...]string{reason, "too_large", "draining"}[i])
	}
	w.Counter(prefix+"_requests_bad_total", float64(c.Bad.Load()))
	w.Counter(prefix+"_reads_total", float64(c.Reads.Load()))
	w.Counter(prefix+"_sam_bytes_total", float64(c.SAMBytes.Load()))
}

// Intake runs the front half of an align request: body-family negotiation
// (415), the body bound, the streaming decode with per-read validation and
// the read cap (400/413), and the empty-request check (400), each rejection
// answered with its envelope and counted. A request that passes goes to the
// tier's admit hook, which answers its own rejections; an admitted request
// is counted as accepted. The parse phase lands in span. r2 is nil for a
// single-end request; ok is false when the response has been written.
func (c *RequestCounters) Intake(w http.ResponseWriter, r *http.Request, paired bool, maxReads, maxReadLen int,
	span *obs.Span, admit func(w http.ResponseWriter, r *http.Request, n int) bool) (r1, r2 []seq.Read, ok bool) {
	asJSON, err := alignBodyKind(r)
	if err != nil {
		c.Bad.Add(1)
		WriteError(w, r, http.StatusUnsupportedMediaType, codeUnsupportedMedia, err.Error())
		return nil, nil, false
	}
	r.Body = http.MaxBytesReader(w, r.Body, requestBodyLimit(maxReads, maxReadLen))
	tParse := time.Now()
	if paired {
		r1, r2, err = parsePairedReads(r.Body, asJSON, maxReads, maxReadLen)
	} else {
		r1, err = parseSingleReads(r.Body, asJSON, maxReads, maxReadLen)
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			c.TooLarge.Add(1)
			WriteError(w, r, http.StatusRequestEntityTooLarge, codeTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		case errors.Is(err, errReadTooLong) || errors.Is(err, errTooManyReads):
			c.TooLarge.Add(1)
			WriteError(w, r, http.StatusRequestEntityTooLarge, codeTooLarge, err.Error())
		default:
			c.Bad.Add(1)
			WriteError(w, r, http.StatusBadRequest, codeBadRequest, err.Error())
		}
		return nil, nil, false
	}
	span.Observe("parse", tParse)
	n := len(r1) + len(r2)
	if n == 0 {
		c.Bad.Add(1)
		WriteError(w, r, http.StatusBadRequest, codeBadRequest, "no reads in request")
		return nil, nil, false
	}
	if !admit(w, r, n) {
		return nil, nil, false
	}
	if paired {
		c.Paired.Add(1)
	} else {
		c.Single.Add(1)
	}
	c.Reads.Add(int64(n))
	return r1, r2, true
}

// RejectDraining answers a request that arrives during graceful shutdown.
func (c *RequestCounters) RejectDraining(w http.ResponseWriter, r *http.Request) {
	c.Draining.Add(1)
	WriteError(w, r, http.StatusServiceUnavailable, codeDraining, "server is shutting down")
}

// WantHeader reports whether the response to r should start with the SAM
// header (default yes; ?header=0 or ?header=false yields records only,
// byte-identical to pipeline.Run's Result.SAM).
func WantHeader(r *http.Request) bool {
	v := r.URL.Query().Get("header")
	return v != "0" && v != "false"
}

// NewSAMStream starts the in-order SAM response of an admitted request with
// n record groups (reads or pairs). The Server-Timing header must be
// committed before any byte goes out, so the writer's first-write hook sets
// it from the phases span holds at that instant plus the time-to-first-byte
// mark, which also lands in ttfb; the full timeline goes to the tier's
// histograms instead. The hook runs on the writer goroutine while the
// handler goroutine waits on the alignment and does not touch headers until
// the writer is retired, so the header map is never written concurrently.
func NewSAMStream(w http.ResponseWriter, r *http.Request, n int, span *obs.Span, ttfb *obs.Histogram) *ordered.Writer {
	w.Header().Set("Content-Type", "text/x-sam")
	st := ordered.New(w, n, WantHeader(r))
	if span != nil {
		hdr := w.Header()
		st.OnFirstWrite(func() {
			span.Mark("ttfb")
			ttfb.Observe(time.Since(span.Start()))
			hdr.Set("Server-Timing", obs.ServerTimingValue(span.Phases()))
		})
	}
	return st
}

// parseSingleReads decodes and validates the read set of a single-end
// align body, streaming so the read-count cap and per-read validation
// apply as the body arrives. asJSON is the negotiated family
// (alignBodyKind).
func parseSingleReads(body io.Reader, asJSON bool, maxReads, maxReadLen int) ([]seq.Read, error) {
	if !asJSON {
		return scanFastq(body, maxReads, maxReadLen)
	}
	var reads []seq.Read
	err := seq.DecodeJSONReads(body, map[string]seq.JSONReadVisitor{
		"reads": func(rd seq.Read) error {
			if len(reads) >= maxReads {
				return capErr(maxReads)
			}
			if err := validateRead(&rd, len(reads), maxReadLen); err != nil {
				return err
			}
			reads = append(reads, rd)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return reads, nil
}

// parsePairedReads decodes and validates both read sets of a paired-end
// align body (interleaved FASTQ — end 1 of pair 1, end 2 of pair 1, ... —
// or JSON reads1/reads2), enforcing the total read cap and per-read
// validation as the body streams in, and pair-name agreement (after /1,/2
// suffix stripping): misordered interleaved input would otherwise silently
// produce wrong pairings.
func parsePairedReads(body io.Reader, asJSON bool, maxReads, maxReadLen int) (r1, r2 []seq.Read, err error) {
	if asJSON {
		count := 0
		visitor := func(label string, dst *[]seq.Read) seq.JSONReadVisitor {
			return func(rd seq.Read) error {
				if count >= maxReads {
					return capErr(maxReads)
				}
				if err := validateRead(&rd, len(*dst), maxReadLen); err != nil {
					return fmt.Errorf("%s: %w", label, err)
				}
				*dst = append(*dst, rd)
				count++
				return nil
			}
		}
		err := seq.DecodeJSONReads(body, map[string]seq.JSONReadVisitor{
			"reads1": visitor("reads1", &r1),
			"reads2": visitor("reads2", &r2),
		})
		if err != nil {
			return nil, nil, err
		}
	} else {
		sc := seq.NewFastqScanner(body)
		n := 0
		for sc.Scan() {
			if n >= maxReads {
				return nil, nil, capErr(maxReads)
			}
			rd := sc.Record()
			if err := validateRead(&rd, n/2, maxReadLen); err != nil {
				return nil, nil, err
			}
			if n%2 == 0 {
				r1 = append(r1, rd)
			} else {
				r2 = append(r2, rd)
			}
			n++
		}
		if err := sc.Err(); err != nil {
			return nil, nil, err
		}
		if n%2 != 0 {
			return nil, nil, fmt.Errorf("interleaved FASTQ holds %d records (odd)", n)
		}
	}
	if len(r1) != len(r2) {
		return nil, nil, fmt.Errorf("unequal pair lists: %d vs %d reads", len(r1), len(r2))
	}
	for i := range r1 {
		if basePairName(r1[i].Name) != basePairName(r2[i].Name) {
			return nil, nil, fmt.Errorf("pair %d: read names %q and %q do not match", i, r1[i].Name, r2[i].Name)
		}
	}
	return r1, r2, nil
}
