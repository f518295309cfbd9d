package repro

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/samcheck"
	"repro/internal/seq"
	"repro/pkg/bwamem"
)

// samCase is one aligned data set: its SAM and the AS differences the
// checker may list, a committed ceiling.
type samCase struct {
	name    string
	sam     []byte
	maxAS   int
	records int
}

var samFx struct {
	once  sync.Once
	ref   samcheck.Reference
	cases []samCase
	err   error
}

// samFixture aligns cmd/gendata-style data: a 100 kbp reference written as
// FASTA, single-end and paired 101 bp reads and divergent 250 bp reads, all
// through the public SDK from the FASTA text.
func samFixture(t *testing.T) (samcheck.Reference, []samCase) {
	t.Helper()
	samFx.once.Do(func() {
		samFx.ref, samFx.cases, samFx.err = buildSAMFixture()
	})
	if samFx.err != nil {
		t.Fatal(samFx.err)
	}
	return samFx.ref, samFx.cases
}

func buildSAMFixture() (samcheck.Reference, []samCase, error) {
	ref, err := datasets.Genome(datasets.DefaultGenome("chrT", 100_000, 99))
	if err != nil {
		return nil, nil, err
	}
	var fasta bytes.Buffer
	if err := seq.WriteFasta(&fasta, []seq.FastaRecord{{Name: "chrT", Seq: seq.Decode(ref.Pac)}}, 80); err != nil {
		return nil, nil, err
	}
	checkRef, err := samcheck.ReadFasta(bytes.NewReader(fasta.Bytes()))
	if err != nil {
		return nil, nil, err
	}
	idx, err := bwamem.Build(bytes.NewReader(fasta.Bytes()))
	if err != nil {
		return nil, nil, err
	}
	a, err := bwamem.New(idx, bwamem.WithThreads(2))
	if err != nil {
		return nil, nil, err
	}
	defer a.Close()
	sdk := func(rs []seq.Read) []bwamem.Read {
		out := make([]bwamem.Read, len(rs))
		for i, r := range rs {
			out[i] = bwamem.Read{Name: r.Name, Seq: r.Seq, Qual: r.Qual}
		}
		return out
	}
	ctx := context.Background()
	single, err := datasets.Simulate(ref, datasets.D4.Scaled(0.1))
	if err != nil {
		return nil, nil, err
	}
	r1, r2, err := datasets.SimulatePairs(ref, datasets.DefaultPairs(datasets.D4.Scaled(0.05)))
	if err != nil {
		return nil, nil, err
	}
	div, err := datasets.Simulate(ref, datasets.Profile{Name: "div250", NumReads: 300, ReadLen: 250, SubRate: 0.04, IndelRate: 0.5, Seed: 250})
	if err != nil {
		return nil, nil, err
	}
	cases := []samCase{{name: "single101", maxAS: 19}, {name: "paired101", maxAS: 13}, {name: "divergent250", maxAS: 51}}
	if cases[0].sam, err = a.AlignSAM(ctx, sdk(single)); err != nil {
		return nil, nil, err
	}
	if cases[1].sam, err = a.AlignPairedSAM(ctx, sdk(r1), sdk(r2)); err != nil {
		return nil, nil, err
	}
	if cases[2].sam, err = a.AlignSAM(ctx, sdk(div)); err != nil {
		return nil, nil, err
	}
	cases[0].records, cases[1].records, cases[2].records = len(single), len(r1)+len(r2), len(div)
	return checkRef, cases, nil
}

// TestSAMValidity checks the aligner's SAM against the reference with
// internal/samcheck, an oracle that shares no code with it: no rule may
// fail, and AS may differ from the CIGAR's rescore on at most a committed
// number of records, each listed.
func TestSAMValidity(t *testing.T) {
	ref, cases := samFixture(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep, err := samcheck.Check(ref, bytes.NewReader(c.sam))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Records < c.records {
				t.Fatalf("%d records for %d reads", rep.Records, c.records)
			}
			for _, f := range rep.Violations {
				t.Error(f)
			}
			for _, f := range rep.AS {
				t.Log(f)
			}
			t.Logf("%d records; %d with AS off the CIGAR's rescore (ceiling %d)", rep.Records, len(rep.AS), c.maxAS)
			if len(rep.AS) > c.maxAS {
				t.Errorf("%d records have AS off the CIGAR's rescore, ceiling %d", len(rep.AS), c.maxAS)
			}
		})
	}
}

// TestSAMValidityCatchesCorruption seeds one corruption per rule into real
// output and requires the checker to report it under that rule.
func TestSAMValidityCatchesCorruption(t *testing.T) {
	ref, cases := samFixture(t)
	single, paired := string(cases[0].sam), string(cases[1].sam)
	// A forward-strand single-end record with a mismatch, and a proper pair.
	mismatch := findLine(t, single, func(f []string) bool { return f[1] == "0" && f[5] == "101M" && hasTag(f, "NM:i:1") })
	pair := findLine(t, paired, func(f []string) bool { return f[1] == "99" && f[5] == "101M" })
	for _, c := range []struct {
		rule, sam, line string
		edit            func(f []string)
	}{
		{"cigar", single, mismatch, func(f []string) { f[5] = "100M" }},
		{"cigar", single, mismatch, func(f []string) { f[5] = "1S101M" }},
		{"md", single, mismatch, func(f []string) { setTag(f, "MD:Z:", swapMDBase) }},
		{"md", single, mismatch, func(f []string) { setTag(f, "MD:Z:", func(s string) string { return s + "A0" }) }},
		{"nm", single, mismatch, func(f []string) { setTag(f, "NM:i:", func(string) string { return "2" }) }},
		{"flags", single, mismatch, func(f []string) { f[1] = fmt.Sprint(atoi(f[1]) ^ 0x4) }},
		{"flags", single, mismatch, func(f []string) { f[1] = fmt.Sprint(atoi(f[1]) ^ 0x40) }},
		{"flags", single, mismatch, func(f []string) { f[3] = "99950" }},
		{"mate", paired, pair, func(f []string) { f[7] = fmt.Sprint(atoi(f[7]) + 1) }},
		{"mate", paired, pair, func(f []string) { f[1] = fmt.Sprint(atoi(f[1]) ^ 0x20) }},
		{"mate", paired, pair, func(f []string) { f[8] = fmt.Sprint(atoi(f[8]) + 1) }},
		{"as", single, mismatch, func(f []string) { setTag(f, "AS:i:", func(s string) string { return fmt.Sprint(atoi(s) + 3) }) }},
	} {
		f := strings.Split(c.line, "\t")
		c.edit(f)
		bad := strings.Replace(c.sam, c.line, strings.Join(f, "\t"), 1)
		rep, err := samcheck.Check(ref, strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		clean, err := samcheck.Check(ref, strings.NewReader(c.sam))
		if err != nil {
			t.Fatal(err)
		}
		got := rep.Count(c.rule)
		if c.rule == "as" {
			got = len(rep.AS) - len(clean.AS)
		}
		if got == 0 {
			t.Errorf("%s: corrupted record %.60q... not reported (%d violations: %v)", c.rule, strings.Join(f, "\t"), len(rep.Violations), rep.Violations)
		}
	}
}

func findLine(t *testing.T, sam string, ok func(f []string) bool) string {
	t.Helper()
	for _, line := range strings.Split(sam, "\n") {
		if f := strings.Split(line, "\t"); len(f) >= 11 && ok(f) {
			return line
		}
	}
	t.Fatal("no record to corrupt")
	return ""
}

func hasTag(f []string, tag string) bool {
	for _, t := range f[11:] {
		if t == tag {
			return true
		}
	}
	return false
}

func setTag(f []string, prefix string, edit func(string) string) {
	for i := 11; i < len(f); i++ {
		if v, ok := strings.CutPrefix(f[i], prefix); ok {
			f[i] = prefix + edit(v)
		}
	}
}

// swapMDBase replaces MD's first mismatch base with another base.
func swapMDBase(md string) string {
	i := strings.IndexAny(md, "ACGT")
	return md[:i] + map[byte]string{'A': "C", 'C': "G", 'G': "T", 'T': "A"}[md[i]] + md[i+1:]
}

func atoi(s string) int {
	var n int
	fmt.Sscan(s, &n)
	return n
}
