package bench

import (
	"bytes"
	"fmt"

	"repro/internal/datasets"
	"repro/pkg/bwamem"
)

// posTolerance is how far a primary record's POS may lie from the simulated
// locus and still count as correct (short indels and clipping shift it).
const posTolerance = 12

// Tally is the outcome of checking SAM records against the simulated truth
// carried in the read names.
type Tally struct {
	Primaries int // primary records seen
	Correct   int // of which on the true strand within posTolerance of the true locus
	Headless  int // runs of records for one read with no primary among them
}

// Add folds another tally in.
func (t *Tally) Add(o Tally) {
	t.Primaries += o.Primaries
	t.Correct += o.Correct
	t.Headless += o.Headless
}

// Failed is how many of the expected reads did not get exactly one primary
// record.
func (t *Tally) Failed(expected int) int {
	d := expected - t.Primaries
	if d < 0 {
		d = -d
	}
	return d + t.Headless
}

// ScoreSAM walks header-less SAM text (newline-terminated records, the
// records of one read adjacent) and scores every primary record. readLen is
// needed for paired truth: a pair's name carries the fragment, and the
// reverse-strand end starts readLen before the fragment's end.
func ScoreSAM(sam []byte, paired bool, readLen int) (Tally, error) {
	var t Tally
	var group []byte // name of the run of records being walked
	groupPrimaries := 0
	closeGroup := func() {
		if group != nil && groupPrimaries == 0 {
			t.Headless++
		}
	}
	for len(sam) > 0 {
		nl := bytes.IndexByte(sam, '\n')
		if nl < 0 {
			return t, fmt.Errorf("bench: SAM text ends mid-record: %q", sam)
		}
		line := sam[:nl]
		sam = sam[nl+1:]
		if len(line) == 0 || line[0] == '@' {
			continue
		}
		name, flag, pos, err := samFields(line)
		if err != nil {
			return t, err
		}
		if !bytes.Equal(name, group) {
			closeGroup()
			group, groupPrimaries = name, 0
		}
		if flag&(bwamem.FlagSecondary|bwamem.FlagSupplementary) != 0 {
			continue
		}
		groupPrimaries++
		t.Primaries++
		if flag&bwamem.FlagUnmapped != 0 {
			continue
		}
		rev := flag&bwamem.FlagReverse != 0
		want, ok := 0, false
		if paired {
			var fragPos, fragLen int
			fragPos, fragLen, ok = datasets.TruePair(string(name))
			want = fragPos
			if rev {
				want = fragPos + fragLen - readLen
			}
		} else {
			var trueRev bool
			want, trueRev, ok = datasets.TruePos(string(name))
			ok = ok && trueRev == rev
		}
		if d := pos - 1 - want; ok && d >= -posTolerance && d <= posTolerance {
			t.Correct++
		}
	}
	closeGroup()
	return t, nil
}

// samFields extracts QNAME, FLAG and POS from one record without
// allocating.
func samFields(line []byte) (name []byte, flag, pos int, err error) {
	var f [4][]byte
	rest := line
	for i := range f {
		tab := bytes.IndexByte(rest, '\t')
		if tab < 0 {
			return nil, 0, 0, fmt.Errorf("bench: malformed SAM record %q", line)
		}
		f[i], rest = rest[:tab], rest[tab+1:]
	}
	if flag, err = atoi(f[1]); err != nil {
		return nil, 0, 0, err
	}
	if pos, err = atoi(f[3]); err != nil {
		return nil, 0, 0, err
	}
	return f[0], flag, pos, nil
}

func atoi(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("bench: empty number in SAM record")
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bench: not a number in SAM record: %q", b)
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}
