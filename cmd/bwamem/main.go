// Command bwamem is the end-user aligner CLI, mirroring bwa-mem2's
// interface and built entirely on the public SDK (pkg/bwamem):
//
//	bwamem index ref.fa                  build ref.fa.bwago
//	bwamem mem [flags] ref.fa reads.fq   map reads, SAM on stdout
//
// mem runs the paper's optimized design. The original BWA-MEM design it is
// measured against is not selectable here: its output is identical, and
// cmd/experiments runs it for the paper's comparisons.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/pkg/bwamem"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "index":
		cmdIndex(os.Args[2:])
	case "mem":
		cmdMem(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  bwamem index [-o out.bwago] <ref.fa>
  bwamem mem [-t N] [-a] [-T score] <ref.fa[.bwago]> <reads.fq> [mates.fq]
`)
	os.Exit(2)
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "bwamem:", err)
	os.Exit(1)
}

func cmdIndex(args []string) {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	out := fs.String("o", "", "output index path (default <ref>.bwago)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	refPath := fs.Arg(0)
	fmt.Fprintf(os.Stderr, "[index] building BWT and suffix array for %s...\n", refPath)
	idx, err := bwamem.BuildFile(refPath)
	if err != nil {
		die(err)
	}
	path := *out
	if path == "" {
		path = refPath + ".bwago"
	}
	w, err := os.Create(path)
	if err != nil {
		die(err)
	}
	if err := idx.Write(w); err != nil {
		w.Close()
		die(err)
	}
	if err := w.Close(); err != nil {
		die(err)
	}
	fmt.Fprintf(os.Stderr, "[index] wrote %s: %d contigs, %d bp\n",
		path, len(idx.Contigs()), idx.ReferenceLength())
}

func cmdMem(args []string) {
	fs := flag.NewFlagSet("mem", flag.ExitOnError)
	threads := fs.Int("t", 0, "worker threads (0 = NumCPU)")
	all := fs.Bool("a", false, "output secondary alignments")
	minScore := fs.Int("T", 30, "minimum score to output")
	batch := fs.Int("batch", 0, "reads per batch (0 = default)")
	fs.Parse(args)
	if fs.NArg() != 2 && fs.NArg() != 3 {
		usage()
	}
	idx, err := bwamem.OpenOrBuild(fs.Arg(0))
	if err != nil {
		die(err)
	}
	if idx.Info().Source == "fasta-build" {
		fmt.Fprintf(os.Stderr, "[mem] no prebuilt index; indexed %d bp in memory (build %s.bwago with `bwamem index` to skip this)\n",
			idx.ReferenceLength(), fs.Arg(0))
	} else {
		fmt.Fprintf(os.Stderr, "[mem] loaded prebuilt index (%s)\n", idx.Info().Source)
	}
	loadReads := func(path string) []bwamem.Read {
		rf, err := os.Open(path)
		if err != nil {
			die(err)
		}
		defer rf.Close()
		reads, err := bwamem.ReadFastq(rf)
		if err != nil {
			die(err)
		}
		return reads
	}
	reads := loadReads(fs.Arg(1))

	aln, err := bwamem.New(idx,
		bwamem.WithThreads(*threads),
		bwamem.WithBatchSize(*batch),
		bwamem.WithMinOutputScore(*minScore),
		bwamem.WithSecondaryOutput(*all),
	)
	if err != nil {
		die(err)
	}
	defer aln.Close()

	start := time.Now()
	nReads := len(reads)
	var sam []byte
	if fs.NArg() == 3 { // paired-end: two FASTQ files
		mates := loadReads(fs.Arg(2))
		if len(mates) != len(reads) {
			die(fmt.Errorf("paired files hold %d and %d reads", len(reads), len(mates)))
		}
		nReads += len(mates)
		sam, err = aln.AlignPairedSAM(context.Background(), reads, mates)
	} else {
		sam, err = aln.AlignSAM(context.Background(), reads)
	}
	if err != nil {
		die(err)
	}
	wall := time.Since(start)

	out := bufio.NewWriterSize(os.Stdout, 1<<20)
	if _, err := out.Write(sam); err != nil {
		die(err)
	}
	if err := out.Flush(); err != nil {
		die(err)
	}
	fmt.Fprintf(os.Stderr, "[mem] %d reads in %v (%d threads)\n",
		nReads, wall.Round(time.Millisecond), aln.Threads())
}
