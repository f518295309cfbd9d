// readmapping runs the workload the paper's introduction motivates — a
// resequencing experiment — through the public SDK (pkg/bwamem) and reports
// the wall time and the mapping accuracy against the simulated truth. The
// comparison with the original BWA-MEM design is cmd/experiments' job.
package main

import (
	"context"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"repro/internal/datasets"
	"repro/pkg/bwamem"
)

func main() {
	idx, err := bwamem.Synthetic(500_000, 11)
	if err != nil {
		log.Fatal(err)
	}
	reads, err := idx.SimulateReads(5000, 101, 104)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reference %d bp, %d reads x %d bp\n", idx.ReferenceLength(), len(reads), len(reads[0].Seq))

	aln, err := bwamem.New(idx, bwamem.WithThreads(2))
	if err != nil {
		log.Fatal(err)
	}
	defer aln.Close()
	start := time.Now()
	sam, err := aln.AlignSAM(context.Background(), reads)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aligned in %v\n", time.Since(start))

	// Score accuracy against the simulation truth encoded in read names.
	good, mapped := 0, 0
	for _, line := range strings.Split(strings.TrimSpace(string(sam)), "\n") {
		if strings.HasPrefix(line, "@") {
			continue
		}
		f := strings.Split(line, "\t")
		flag, _ := strconv.Atoi(f[1])
		if flag&(bwamem.FlagSecondary|bwamem.FlagSupplementary|bwamem.FlagUnmapped) != 0 {
			continue
		}
		mapped++
		pos, _ := strconv.Atoi(f[3])
		truth, rev, _ := datasets.TruePos(f[0])
		if rev == (flag&bwamem.FlagReverse != 0) && abs(pos-1-truth) <= 12 {
			good++
		}
	}
	fmt.Printf("accuracy: %d/%d primary alignments at the simulated locus (%.1f%%)\n",
		good, mapped, 100*float64(good)/float64(mapped))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
