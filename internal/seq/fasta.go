package seq

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// FastaRecord is one named sequence parsed from FASTA input.
type FastaRecord struct {
	Name string // text after '>' up to the first whitespace
	Desc string // remainder of the header line, if any
	Seq  []byte // raw ASCII bases
}

// ReadFasta parses all records from FASTA input. Lines may be wrapped at any
// width; blank lines are ignored.
func ReadFasta(r io.Reader) ([]FastaRecord, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var recs []FastaRecord
	var cur *FastaRecord
	lineNo := 0
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			lineNo++
			line = bytes.TrimRight(line, "\r\n")
			switch {
			case len(line) == 0:
				// skip blank lines
			case line[0] == '>':
				header := bytes.TrimSpace(line[1:])
				if len(header) == 0 {
					return nil, fmt.Errorf("fasta: line %d: empty header", lineNo)
				}
				name, desc := splitHeader(header)
				recs = append(recs, FastaRecord{Name: name, Desc: desc})
				cur = &recs[len(recs)-1]
			case cur == nil:
				return nil, fmt.Errorf("fasta: line %d: sequence data before first header", lineNo)
			default:
				cur.Seq = append(cur.Seq, line...)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("fasta: read: %w", err)
		}
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("fasta: no records")
	}
	for i := range recs {
		if len(recs[i].Seq) == 0 {
			return nil, fmt.Errorf("fasta: record %q has no sequence", recs[i].Name)
		}
	}
	return recs, nil
}

// splitHeader splits a header line (marker stripped) into the name — up to
// the first ASCII whitespace byte, as kseq reads it — and the trimmed
// description.
func splitHeader(h []byte) (name, desc string) {
	if i := bytes.IndexAny(h, " \t\r\v\f"); i >= 0 {
		return string(h[:i]), string(bytes.TrimSpace(h[i+1:]))
	}
	return string(h), ""
}

// WriteFasta writes records in FASTA format with lines wrapped at width
// (width <= 0 means no wrapping).
func WriteFasta(w io.Writer, recs []FastaRecord, width int) error {
	bw := bufio.NewWriter(w)
	var buf bytes.Buffer // staged per record so each bw.Write error is checked
	for _, rec := range recs {
		buf.Reset()
		if rec.Desc != "" {
			fmt.Fprintf(&buf, ">%s %s\n", rec.Name, rec.Desc)
		} else {
			fmt.Fprintf(&buf, ">%s\n", rec.Name)
		}
		s := rec.Seq
		if width <= 0 {
			buf.Write(s)
			buf.WriteByte('\n')
		} else {
			for len(s) > 0 {
				n := width
				if n > len(s) {
					n = len(s)
				}
				buf.Write(s[:n])
				buf.WriteByte('\n')
				s = s[n:]
			}
		}
		if _, err := bw.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReferenceFromFasta parses FASTA input and packs it into a Reference.
func ReferenceFromFasta(r io.Reader) (*Reference, error) {
	recs, err := ReadFasta(r)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(recs))
	seqs := make([][]byte, len(recs))
	for i, rec := range recs {
		names[i] = rec.Name
		seqs[i] = rec.Seq
	}
	return NewReference(names, seqs)
}
