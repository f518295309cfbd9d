package seq

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// Read is one sequencing read: name, ASCII bases, and per-base Phred+33
// qualities (may be nil when synthesized without qualities).
type Read struct {
	Name string
	Seq  []byte
	Qual []byte
}

// FastqScanner is an incremental 4-line-record FASTQ decoder: Scan advances
// to the next record, Record returns it. Unlike ReadFastq it never
// materializes more than one record, so a caller can enforce per-request
// read caps and per-read validation while the body is still arriving and
// abort without consuming the remainder of the input (beyond the scanner's
// read-ahead buffer).
type FastqScanner struct {
	br   *bufio.Reader
	rec  int // records yielded so far (1-based in error messages)
	cur  Read
	err  error
	done bool
}

// NewFastqScanner returns a scanner over r.
func NewFastqScanner(r io.Reader) *FastqScanner {
	return &FastqScanner{br: bufio.NewReaderSize(r, 1<<16)}
}

// Scan advances to the next record, reporting whether one is available.
// It returns false at end of input or on the first malformed record; Err
// distinguishes the two.
func (s *FastqScanner) Scan() bool {
	if s.done || s.err != nil {
		return false
	}
	for {
		header, err := readLine(s.br)
		if err == io.EOF && len(header) == 0 {
			s.done = true
			return false
		}
		if err != nil && err != io.EOF {
			s.err = fmt.Errorf("fastq: read: %w", err)
			return false
		}
		if len(header) == 0 {
			continue // tolerate trailing blank lines
		}
		s.rec++
		if header[0] != '@' {
			s.err = fmt.Errorf("fastq: record %d: header %q does not start with '@'", s.rec, header)
			return false
		}
		sq, err := readLine(s.br)
		if err != nil && err != io.EOF {
			s.err = fmt.Errorf("fastq: record %d: %w", s.rec, err)
			return false
		}
		plus, err := readLine(s.br)
		if err != nil && err != io.EOF {
			s.err = fmt.Errorf("fastq: record %d: %w", s.rec, err)
			return false
		}
		if len(plus) == 0 || plus[0] != '+' {
			s.err = fmt.Errorf("fastq: record %d: separator line %q does not start with '+'", s.rec, plus)
			return false
		}
		q, err := readLine(s.br)
		if err != nil && err != io.EOF {
			s.err = fmt.Errorf("fastq: record %d: %w", s.rec, err)
			return false
		}
		if len(q) != len(sq) {
			s.err = fmt.Errorf("fastq: record %d: quality length %d != sequence length %d", s.rec, len(q), len(sq))
			return false
		}
		name, _ := splitHeader(header[1:])
		s.cur = Read{Name: name, Seq: sq, Qual: q}
		if err == io.EOF {
			s.done = true
		}
		return true
	}
}

// Record returns the record Scan advanced to. Valid until the next Scan.
func (s *FastqScanner) Record() Read { return s.cur }

// Err returns the first error encountered, nil at clean end of input.
func (s *FastqScanner) Err() error { return s.err }

// ReadFastq parses all reads from 4-line-record FASTQ input.
func ReadFastq(r io.Reader) ([]Read, error) {
	sc := NewFastqScanner(r)
	var reads []Read
	//bwalint:hot per-record decode loop; dominates whole-file ingest
	for sc.Scan() {
		reads = append(reads, sc.Record())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(reads) == 0 {
		return nil, fmt.Errorf("fastq: no records")
	}
	return reads, nil
}

func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadBytes('\n')
	line = bytes.TrimRight(line, "\r\n")
	// Return a copy: ReadBytes already allocates, but trimming may alias.
	return line, err
}

// WriteFastq writes reads in 4-line FASTQ format. Reads without qualities get
// a constant 'I' (Q40) quality string.
func WriteFastq(w io.Writer, reads []Read) error {
	bw := bufio.NewWriter(w)
	var buf bytes.Buffer // staged per record so each bw.Write error is checked
	for _, rd := range reads {
		buf.Reset()
		buf.WriteByte('@')
		buf.WriteString(rd.Name)
		buf.WriteByte('\n')
		buf.Write(rd.Seq)
		buf.WriteString("\n+\n")
		if rd.Qual != nil {
			buf.Write(rd.Qual)
		} else {
			for range rd.Seq {
				buf.WriteByte('I')
			}
		}
		buf.WriteByte('\n')
		if _, err := bw.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	return bw.Flush()
}
