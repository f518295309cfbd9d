package bwamem

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/seq"
)

// Read is one sequencing read: name, ASCII bases, and optional per-base
// Phred+33 qualities (nil when absent). It is the unit every alignment
// entry point consumes.
type Read struct {
	Name string
	Seq  []byte
	Qual []byte
}

// SAM FLAG bits (SAM spec §1.4), for interpreting the records the aligner
// emits without importing a SAM library.
const (
	FlagPaired        = 0x1
	FlagProperPair    = 0x2
	FlagUnmapped      = 0x4
	FlagMateUnmapped  = 0x8
	FlagReverse       = 0x10
	FlagMateReverse   = 0x20
	FlagFirst         = 0x40
	FlagLast          = 0x80
	FlagSecondary     = 0x100
	FlagSupplementary = 0x800
)

// config is the resolved option set of one Aligner.
type config struct {
	threads int // 0 = NumCPU
	batch   int // 0 = default
	opts    core.Options
}

// Option configures an Aligner at construction (New). Options validate
// eagerly: an out-of-range value fails New rather than misaligning later.
type Option func(*config) error

// WithThreads sets the worker-goroutine count for this aligner's pool.
// 0 (the default) means runtime.NumCPU.
func WithThreads(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("bwamem: negative thread count %d", n)
		}
		c.threads = n
		return nil
	}
}

// WithBatchSize sets how many reads one worker task aligns (the unit of
// dispatch; output does not depend on it). 0 (the default) means 512, or
// less for a call with too few reads to give every worker about four
// tasks of 512, down to 64.
func WithBatchSize(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("bwamem: negative batch size %d", n)
		}
		c.batch = n
		return nil
	}
}

// WithScores sets the match score and mismatch penalty (bwa mem -A/-B;
// defaults 1 and 4).
func WithScores(match, mismatch int) Option {
	return func(c *config) error {
		if match <= 0 || mismatch < 0 {
			return fmt.Errorf("bwamem: invalid scores match=%d mismatch=%d", match, mismatch)
		}
		c.opts.MatchScore = match
		c.opts.MismatchPen = mismatch
		return nil
	}
}

// WithGapPenalties sets the gap open and extend penalties, applied to both
// deletions and insertions (bwa mem -O/-E; defaults 6 and 1).
func WithGapPenalties(open, extend int) Option {
	return func(c *config) error {
		if open < 0 || extend <= 0 {
			return fmt.Errorf("bwamem: invalid gap penalties open=%d extend=%d", open, extend)
		}
		c.opts.ODel, c.opts.OIns = open, open
		c.opts.EDel, c.opts.EIns = extend, extend
		return nil
	}
}

// WithClipPenalties sets the 5' and 3' soft-clipping penalties (end
// bonuses; bwa mem -L, default 5 each).
func WithClipPenalties(p5, p3 int) Option {
	return func(c *config) error {
		if p5 < 0 || p3 < 0 {
			return fmt.Errorf("bwamem: invalid clip penalties %d,%d", p5, p3)
		}
		c.opts.PenClip5, c.opts.PenClip3 = p5, p3
		return nil
	}
}

// WithBandWidth sets the banded-extension band width (bwa mem -w,
// default 100).
func WithBandWidth(w int) Option {
	return func(c *config) error {
		if w <= 0 {
			return fmt.Errorf("bwamem: invalid band width %d", w)
		}
		c.opts.W = w
		return nil
	}
}

// WithZDrop sets the Z-drop extension cutoff (bwa mem -d, default 100).
func WithZDrop(z int) Option {
	return func(c *config) error {
		if z <= 0 {
			return fmt.Errorf("bwamem: invalid z-drop %d", z)
		}
		c.opts.Zdrop = z
		return nil
	}
}

// WithMinOutputScore sets the minimum alignment score to output (bwa mem
// -T, default 30).
func WithMinOutputScore(t int) Option {
	return func(c *config) error {
		if t < 0 {
			return fmt.Errorf("bwamem: invalid minimum output score %d", t)
		}
		c.opts.ScoreThreshold = t
		return nil
	}
}

// WithSecondaryOutput emits secondary alignments (bwa mem -a; off by
// default).
func WithSecondaryOutput(all bool) Option {
	return func(c *config) error {
		c.opts.OutputAll = all
		return nil
	}
}

// resolveConfig applies opts over the defaults.
func resolveConfig(opts []Option) (config, error) {
	c := config{opts: core.DefaultOptions()}
	for _, opt := range opts {
		if err := opt(&c); err != nil {
			return c, err
		}
	}
	return c, nil
}

// toSeqReads converts the public read type to the internal one (the two
// structs are field-identical, so this is a per-element type conversion).
func toSeqReads(reads []Read) []seq.Read {
	out := make([]seq.Read, len(reads))
	for i, r := range reads {
		out[i] = seq.Read(r)
	}
	return out
}

// fromSeqReads is the inverse of toSeqReads.
func fromSeqReads(reads []seq.Read) []Read {
	out := make([]Read, len(reads))
	for i, r := range reads {
		out[i] = Read(r)
	}
	return out
}
