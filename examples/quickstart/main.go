// Quickstart: index a reference, map a handful of reads, and print SAM —
// the minimal end-to-end use of the public SDK (pkg/bwamem), with no
// reference files needed.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/pkg/bwamem"
)

func main() {
	// 1. An index. Real users would Build from FASTA (bwamem.BuildFile),
	//    or Open/OpenMmap a prebuilt .bwago; here we synthesize 100 kbp.
	idx, err := bwamem.Synthetic(100_000, 1)
	if err != nil {
		log.Fatal(err)
	}

	// 2. An aligner over it, running the paper's optimized design (its
	//    output is identical to original BWA-MEM's). Options tune threads,
	//    batching, and scoring.
	aln, err := bwamem.New(idx, bwamem.WithThreads(2))
	if err != nil {
		log.Fatal(err)
	}
	defer aln.Close()

	// 3. Some reads. Real users would parse FASTQ with bwamem.ReadFastq.
	reads, err := idx.SimulateReads(10, 100, 2)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Map and print a complete SAM document (header + records).
	sam, err := aln.AlignSAM(context.Background(), reads)
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(sam)
	fmt.Fprintf(os.Stderr, "mapped %d reads\n", len(reads))
}
