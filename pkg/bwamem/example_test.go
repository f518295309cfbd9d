package bwamem_test

import (
	"context"
	"fmt"
	"log"
	"strings"
	"sync/atomic"

	"repro/pkg/bwamem"
)

// The minimal end-to-end use of the SDK: index, aligner, reads, SAM.
func Example() {
	// Real users Build from FASTA or Open a prebuilt .bwago index;
	// Synthetic needs no files.
	idx, err := bwamem.Synthetic(50_000, 1)
	if err != nil {
		log.Fatal(err)
	}
	aln, err := bwamem.New(idx, bwamem.WithThreads(2))
	if err != nil {
		log.Fatal(err)
	}
	defer aln.Close()

	reads, err := idx.SimulateReads(5, 100, 2)
	if err != nil {
		log.Fatal(err)
	}
	sam, err := aln.AlignSAM(context.Background(), reads)
	if err != nil {
		log.Fatal(err)
	}

	mapped := 0
	for _, line := range strings.Split(strings.TrimSpace(string(sam)), "\n") {
		if strings.HasPrefix(line, "@") {
			continue
		}
		var flag int
		fmt.Sscan(strings.Split(line, "\t")[1], &flag)
		if flag&bwamem.FlagUnmapped == 0 {
			mapped++
		}
	}
	fmt.Printf("mapped %d of %d reads\n", mapped, len(reads))
	// Output: mapped 5 of 5 reads
}

// Streaming alignment: records are delivered through a callback as they
// complete, so a large run needs no output buffer.
func ExampleAligner_Align() {
	idx, err := bwamem.Synthetic(50_000, 1)
	if err != nil {
		log.Fatal(err)
	}
	aln, err := bwamem.New(idx, bwamem.WithThreads(2), bwamem.WithBatchSize(64))
	if err != nil {
		log.Fatal(err)
	}
	defer aln.Close()

	reads, err := idx.SimulateReads(200, 100, 3)
	if err != nil {
		log.Fatal(err)
	}
	var records atomic.Int64
	// emit runs on worker goroutines; i is the read index.
	err = aln.Align(context.Background(), reads, func(i int, rec []byte) {
		records.Add(1)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed records for %d reads\n", records.Load())
	// Output: streamed records for 200 reads
}

// Functional options tune threading, batching, and scoring at
// construction.
func ExampleNew() {
	idx, err := bwamem.Synthetic(50_000, 1)
	if err != nil {
		log.Fatal(err)
	}
	aln, err := bwamem.New(idx,
		bwamem.WithThreads(1),
		bwamem.WithMinOutputScore(40), // bwa mem -T 40
	)
	if err != nil {
		log.Fatal(err)
	}
	defer aln.Close()
	fmt.Println(aln.Threads())
	// Output: 1
}
