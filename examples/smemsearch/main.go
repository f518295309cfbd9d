// smemsearch demonstrates the seeding layer directly: build an FM-index,
// find the super-maximal exact matches of a query (paper Algorithm 4), and
// resolve their reference positions through the suffix-array lookup kernel —
// the SMEM and SAL stages in isolation.
package main

import (
	"fmt"
	"log"

	"repro/internal/datasets"
	"repro/internal/fmindex"
	"repro/internal/sal"
	"repro/internal/seq"
)

func main() {
	ref, err := datasets.Genome(datasets.DefaultGenome("demo", 50_000, 3))
	if err != nil {
		log.Fatal(err)
	}
	// Index the doubled reference (forward + reverse complement), as
	// BWA-MEM does, in the paper's optimized flavor.
	idx, fullSA, err := fmindex.Build(ref.Doubled(), fmindex.Optimized)
	if err != nil {
		log.Fatal(err)
	}
	lookup, err := sal.New(fullSA, 1, idx) // interval 1: the flat suffix array
	if err != nil {
		log.Fatal(err)
	}

	// A query: 60 bp of reference with one mismatch planted in the middle.
	q := append([]byte(nil), ref.Pac[10000:10060]...)
	q[30] = (q[30] + 1) & 3
	fmt.Printf("query: %s\n", seq.Decode(q))

	// All SMEMs overlapping each position (swept left to right).
	var buf fmindex.SMEMBuf
	var mems []fmindex.BiInterval
	for pos := 0; pos < len(q); {
		mems, pos = idx.SMEM1(q, pos, 1, &buf, mems)
	}
	fmt.Printf("%d SMEMs:\n", len(mems))
	for _, m := range mems {
		fmt.Printf("  query[%3d:%3d) len %2d, %d hit(s):", m.QBeg, m.QEnd, m.Len(), m.S)
		// Resolve up to 4 occurrences via the SAL kernel.
		for k := 0; k < m.S && k < 4; k++ {
			row := lookup.Lookup(m.K + k)
			fwd, rev := ref.DepackPos(row, m.Len())
			strand := '+'
			if rev {
				strand = '-'
			}
			fmt.Printf(" %d%c", fwd, strand)
		}
		fmt.Println()
	}

	// The full three-pass seeding used by the aligner (SMEMs + re-seeding +
	// LAST-like pass).
	seeds := idx.CollectIntervals(q, fmindex.DefaultSeedOpts(), &buf, nil)
	fmt.Printf("three-pass seeding yields %d seed intervals\n", len(seeds))
}
