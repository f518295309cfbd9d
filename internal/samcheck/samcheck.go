// Package samcheck is a SAM validity oracle for tests. It reads SAM text
// and the FASTA it was aligned against, and checks each record against the
// reference bases alone, so it shares no code with the aligner it checks:
// it imports nothing from this module (the root TestSAMCheckSharesNoCode
// enforces that), and no shipped binary imports it.
//
// The rules:
//   - cigar: the CIGAR parses and spans the read, soft clips included, and
//     QUAL is as long as SEQ;
//   - nm, md: NM and MD agree with the reference bases under the CIGAR;
//   - flags: the flag bits are legal and agree with RNAME, POS and CIGAR,
//     and a mapped record lies inside its reference sequence;
//   - mate: the two primary records of a pair name each other in RNEXT,
//     PNEXT and the mate strand and mate-unmapped bits, with opposite TLEN.
//
// AS is rescored from the CIGAR and the reference with BWA-MEM's default
// scores. AS is the extension score and the CIGAR comes from a separate
// global alignment, so the two may differ legitimately; differences are
// listed in Report.AS rather than counted as violations.
package samcheck

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// BWA-MEM's default scores, which AS is rescored with.
const (
	matchScore    = 1
	mismatchScore = 4
	nScore        = 1 // the cost of a base aligned against N
	gapOpen       = 6
	gapExtend     = 1
)

// Flag bits.
const (
	flagPaired       = 0x1
	flagProper       = 0x2
	flagUnmapped     = 0x4
	flagMateUnmapped = 0x8
	flagReverse      = 0x10
	flagMateReverse  = 0x20
	flagFirst        = 0x40
	flagLast         = 0x80
	flagSecondary    = 0x100
	flagSupplement   = 0x800
	flagsKnown       = 0xfff
)

// Reference maps sequence names to their bases, upper case.
type Reference map[string][]byte

// ReadFasta parses FASTA text; a header's name ends at its first blank.
func ReadFasta(r io.Reader) (Reference, error) {
	ref := Reference{}
	var name string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<30)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		switch {
		case len(line) == 0:
		case line[0] == '>':
			name = strings.Fields(string(line[1:]) + " ")[0]
			if _, dup := ref[name]; dup {
				return nil, fmt.Errorf("samcheck: FASTA sequence %q twice", name)
			}
			ref[name] = nil
		case name == "":
			return nil, fmt.Errorf("samcheck: FASTA bases before the first header")
		default:
			ref[name] = append(ref[name], bytes.ToUpper(line)...)
		}
	}
	return ref, sc.Err()
}

// Finding is one record that breaks a rule (or, in Report.AS, whose AS
// differs from its rescore).
type Finding struct {
	Rule  string // cigar, nm, md, flags, mate, as, or parse
	Line  int    // 1-based line of the SAM text
	QName string
	Msg   string
}

func (f Finding) String() string {
	return fmt.Sprintf("line %d %s: %s: %s", f.Line, f.QName, f.Rule, f.Msg)
}

// Report is the outcome of Check.
type Report struct {
	Records    int
	Violations []Finding
	AS         []Finding // AS differs from the rescore of CIGAR and reference
}

// Count returns the number of violations of rule.
func (r *Report) Count(rule string) int {
	n := 0
	for _, f := range r.Violations {
		if f.Rule == rule {
			n++
		}
	}
	return n
}

// record is one SAM alignment line.
type record struct {
	line             int
	qname            string
	flag             int
	rname, rnext     string
	pos, pnext, tlen int
	cigar            []op
	seq, qual        string
	tags             map[string]string
}

type op struct {
	n    int
	kind byte
}

var cigarOp = regexp.MustCompile(`^([0-9]+)([MIDNSHP=X])`)

func parseCigar(s string) ([]op, error) {
	if s == "*" {
		return nil, nil
	}
	var ops []op
	for rest := s; rest != ""; {
		m := cigarOp.FindStringSubmatch(rest)
		if m == nil {
			return nil, fmt.Errorf("CIGAR %q does not parse", s)
		}
		n, err := strconv.Atoi(m[1])
		if err != nil || n == 0 {
			return nil, fmt.Errorf("CIGAR %q has a zero or oversized length", s)
		}
		ops = append(ops, op{n, m[2][0]})
		rest = rest[len(m[0]):]
	}
	for i, o := range ops {
		switch o.kind {
		case 'H':
			if i != 0 && i != len(ops)-1 {
				return nil, fmt.Errorf("CIGAR %q has an inner hard clip", s)
			}
		case 'S':
			inner := ops[:i]
			if len(inner) > 0 && inner[0].kind == 'H' {
				inner = inner[1:]
			}
			outer := ops[i+1:]
			if len(outer) > 0 && outer[len(outer)-1].kind == 'H' {
				outer = outer[:len(outer)-1]
			}
			if len(inner) > 0 && len(outer) > 0 {
				return nil, fmt.Errorf("CIGAR %q has an inner soft clip", s)
			}
		}
	}
	return ops, nil
}

func parseRecord(line string, n int) (*record, error) {
	f := strings.Split(line, "\t")
	if len(f) < 11 {
		return nil, fmt.Errorf("%d fields, want at least 11", len(f))
	}
	r := &record{line: n, qname: f[0], rname: f[2], rnext: f[6], seq: f[9], qual: f[10], tags: map[string]string{}}
	var err error
	ints := []struct {
		dst  *int
		text string
	}{{&r.flag, f[1]}, {&r.pos, f[3]}, {&r.pnext, f[7]}, {&r.tlen, f[8]}}
	for _, x := range ints {
		if *x.dst, err = strconv.Atoi(x.text); err != nil {
			return nil, fmt.Errorf("field %q is not an integer", x.text)
		}
	}
	if _, err := strconv.Atoi(f[4]); err != nil {
		return nil, fmt.Errorf("MAPQ %q is not an integer", f[4])
	}
	for _, t := range f[11:] {
		p := strings.SplitN(t, ":", 3)
		if len(p) != 3 || len(p[0]) != 2 {
			return nil, fmt.Errorf("tag %q does not parse", t)
		}
		r.tags[p[0]] = p[2]
	}
	r.cigar, err = parseCigar(f[5])
	return r, err
}

// Check reads SAM text and checks every record against ref.
func Check(ref Reference, sam io.Reader) (*Report, error) {
	rep := &Report{}
	c := checker{ref: ref, rep: rep, mates: map[string][]*record{}}
	sc := bufio.NewScanner(sam)
	sc.Buffer(make([]byte, 1<<16), 1<<26)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" {
			continue
		}
		if line[0] == '@' {
			c.header(line, n)
			continue
		}
		rep.Records++
		r, err := parseRecord(line, n)
		if err != nil {
			rep.Violations = append(rep.Violations, Finding{"parse", n, strings.SplitN(line, "\t", 2)[0], err.Error()})
			continue
		}
		c.record(r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	c.pairs()
	return rep, nil
}

type checker struct {
	ref   Reference
	rep   *Report
	mates map[string][]*record // primary paired records by QNAME
	order []string
}

func (c *checker) fail(r *record, rule, format string, args ...any) {
	c.rep.Violations = append(c.rep.Violations, Finding{rule, r.line, r.qname, fmt.Sprintf(format, args...)})
}

// header checks that an @SQ line's length matches the FASTA.
func (c *checker) header(line string, n int) {
	if !strings.HasPrefix(line, "@SQ\t") {
		return
	}
	var name string
	ln := -1
	for _, f := range strings.Split(line, "\t")[1:] {
		if v, ok := strings.CutPrefix(f, "SN:"); ok {
			name = v
		} else if v, ok := strings.CutPrefix(f, "LN:"); ok {
			ln, _ = strconv.Atoi(v)
		}
	}
	if bases, ok := c.ref[name]; !ok || len(bases) != ln {
		c.rep.Violations = append(c.rep.Violations, Finding{"flags", n, "@SQ", fmt.Sprintf("@SQ %s LN:%d does not match the FASTA", name, ln)})
	}
}

func (c *checker) record(r *record) {
	// cigar
	qlen, rlen := 0, 0
	for _, o := range r.cigar {
		if strings.IndexByte("MIS=X", o.kind) >= 0 {
			qlen += o.n
		}
		if strings.IndexByte("MDN=X", o.kind) >= 0 {
			rlen += o.n
		}
	}
	if r.cigar != nil && r.seq != "*" && qlen != len(r.seq) {
		c.fail(r, "cigar", "CIGAR spans %d read bases, SEQ has %d", qlen, len(r.seq))
	}
	if r.qual != "*" && r.seq != "*" && len(r.qual) != len(r.seq) {
		c.fail(r, "cigar", "QUAL has %d bytes, SEQ %d", len(r.qual), len(r.seq))
	}

	// flags
	fl := r.flag
	switch {
	case fl&^flagsKnown != 0:
		c.fail(r, "flags", "unknown flag bits %#x", fl&^flagsKnown)
	case fl&flagPaired == 0 && fl&(flagProper|flagMateUnmapped|flagMateReverse|flagFirst|flagLast) != 0:
		c.fail(r, "flags", "pair bits %#x on an unpaired read", fl)
	case fl&flagPaired != 0 && (fl&flagFirst == 0) == (fl&flagLast == 0):
		c.fail(r, "flags", "a paired read must be exactly one of first and last (flag %d)", fl)
	}
	if fl&flagUnmapped != 0 {
		switch {
		case r.cigar != nil:
			c.fail(r, "flags", "unmapped read with CIGAR")
		case fl&(flagSecondary|flagSupplement) != 0:
			c.fail(r, "flags", "unmapped read marked secondary or supplementary")
		case r.rname == "*" && r.pos != 0:
			c.fail(r, "flags", "unmapped read with POS %d but no RNAME", r.pos)
		case r.rname != "*" && (fl&flagPaired == 0 || fl&flagMateUnmapped != 0):
			c.fail(r, "flags", "unmapped read placed at %s:%d without a mapped mate", r.rname, r.pos)
		}
	} else {
		bases, ok := c.ref[r.rname]
		switch {
		case !ok:
			c.fail(r, "flags", "mapped read on unknown RNAME %q", r.rname)
			return
		case r.cigar == nil:
			c.fail(r, "flags", "mapped read without CIGAR")
			return
		case r.pos < 1 || r.pos-1+rlen > len(bases):
			c.fail(r, "flags", "alignment %s:%d+%d leaves the sequence (length %d)", r.rname, r.pos, rlen, len(bases))
			return
		}
		if r.seq != "*" && qlen == len(r.seq) {
			c.bases(r, bases[r.pos-1:])
		}
	}
	if fl&flagPaired != 0 && fl&(flagSecondary|flagSupplement) == 0 {
		if _, seen := c.mates[r.qname]; !seen {
			c.order = append(c.order, r.qname)
		}
		c.mates[r.qname] = append(c.mates[r.qname], r)
	}
}

// mdEvent is what MD or the alignment says of one reference base under an
// M, =, X or D operation: 0 a match, else the reference base, negated
// (as -base) when the read deletes it.
type mdEvent int

var mdGrammar = regexp.MustCompile(`^[0-9]+(([A-Z]|\^[A-Z]+)[0-9]+)*$`)

// bases checks NM and MD and rescores AS against the reference from POS.
func (c *checker) bases(r *record, ref []byte) {
	var truth []mdEvent
	nm, score := 0, 0
	q, t := 0, 0
	for _, o := range r.cigar {
		switch o.kind {
		case 'M', '=', 'X':
			for k := 0; k < o.n; k++ {
				rb, tb := upper(r.seq[q+k]), ref[t+k]
				switch {
				case rb == 'N' || tb == 'N':
					score -= nScore
				case rb == tb:
					score += matchScore
				default:
					score -= mismatchScore
				}
				if rb != tb {
					nm++
					truth = append(truth, mdEvent(tb))
				} else {
					truth = append(truth, 0)
				}
			}
			q, t = q+o.n, t+o.n
		case 'I':
			nm += o.n
			score -= gapOpen + gapExtend*o.n
			q += o.n
		case 'D':
			nm += o.n
			score -= gapOpen + gapExtend*o.n
			for k := 0; k < o.n; k++ {
				truth = append(truth, -mdEvent(ref[t+k]))
			}
			t += o.n
		case 'N':
			t += o.n
		case 'S':
			q += o.n
		}
	}
	if v, ok := r.tags["NM"]; !ok {
		c.fail(r, "nm", "no NM tag")
	} else if n, err := strconv.Atoi(v); err != nil || n != nm {
		c.fail(r, "nm", "NM:i:%s, the reference gives %d", v, nm)
	}
	if md, ok := r.tags["MD"]; !ok {
		c.fail(r, "md", "no MD tag")
	} else if !mdGrammar.MatchString(md) {
		c.fail(r, "md", "MD:Z:%s does not parse", md)
	} else if got := expandMD(md); !equalEvents(got, truth) {
		c.fail(r, "md", "MD:Z:%s disagrees with the reference (%s)", md, describe(got, truth))
	}
	if v, ok := r.tags["AS"]; ok {
		if as, err := strconv.Atoi(v); err != nil || as != score {
			c.rep.AS = append(c.rep.AS, Finding{"as", r.line, r.qname, fmt.Sprintf("AS:i:%s, CIGAR %s rescores to %d", v, cigarString(r.cigar), score)})
		}
	}
}

func upper(b byte) byte {
	if 'a' <= b && b <= 'z' {
		return b - 'a' + 'A'
	}
	return b
}

// expandMD turns a grammatical MD string into one event per reference base.
func expandMD(md string) []mdEvent {
	var ev []mdEvent
	for i := 0; i < len(md); {
		switch c := md[i]; {
		case c >= '0' && c <= '9':
			j := i
			for j < len(md) && md[j] >= '0' && md[j] <= '9' {
				j++
			}
			n, _ := strconv.Atoi(md[i:j])
			for ; n > 0; n-- {
				ev = append(ev, 0)
			}
			i = j
		case c == '^':
			for i++; i < len(md) && md[i] >= 'A' && md[i] <= 'Z'; i++ {
				ev = append(ev, -mdEvent(md[i]))
			}
		default:
			ev = append(ev, mdEvent(c))
			i++
		}
	}
	return ev
}

func equalEvents(a, b []mdEvent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// describe names the first reference base where MD and the alignment part.
func describe(got, want []mdEvent) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("reference base %d of the alignment", i+1)
		}
	}
	return fmt.Sprintf("MD covers %d reference bases, the CIGAR %d", len(got), len(want))
}

func cigarString(ops []op) string {
	var b strings.Builder
	for _, o := range ops {
		fmt.Fprintf(&b, "%d%c", o.n, o.kind)
	}
	return b.String()
}

// pairs checks that each pair's two primary records name each other.
func (c *checker) pairs() {
	for _, name := range c.order {
		recs := c.mates[name]
		if len(recs) != 2 || recs[0].flag&flagFirst == recs[1].flag&flagFirst {
			c.fail(recs[0], "mate", "%d primary records for the pair, want one first and one last", len(recs))
			continue
		}
		for k, a := range recs {
			b := recs[1-k]
			next := a.rnext
			if next == "=" {
				next = a.rname
			}
			switch {
			case next != b.rname || a.pnext != b.pos:
				c.fail(a, "mate", "RNEXT/PNEXT %s:%d, the mate is at %s:%d", next, a.pnext, b.rname, b.pos)
			case (a.flag&flagMateReverse != 0) != (b.flag&flagReverse != 0):
				c.fail(a, "mate", "mate-reverse bit disagrees with the mate's strand")
			case (a.flag&flagMateUnmapped != 0) != (b.flag&flagUnmapped != 0):
				c.fail(a, "mate", "mate-unmapped bit disagrees with the mate")
			case a.tlen != -b.tlen:
				c.fail(a, "mate", "TLEN %d, the mate's is %d", a.tlen, b.tlen)
			}
		}
	}
}
