// Package sal implements the suffix-array lookup (SAL) kernel, the second of
// the paper's three hot kernels: converting SA-interval rows produced by
// SMEM seeding into reference coordinates.
//
// SA stores every intv-th entry of the suffix array and recovers the rest
// by walking the LF mapping until a sampled row is hit (§4.5):
//
//   - Interval 1 is the paper's optimization, the flat suffix array: every
//     lookup is a single array read (Equation 1). It trades memory (about
//     48 GB for a human genome in the paper; megabytes at this
//     reproduction's scale) for a ~183x kernel speedup. The serving engine
//     uses it.
//
//   - Interval DefaultCompression is original BWA-MEM's design. Each walk
//     step costs an occurrence-table access, which is why the paper measures
//     ~5,190 instructions per lookup at compression factor 128.
package sal

import (
	"fmt"

	"repro/internal/fmindex"
)

// DefaultCompression is the compression factor the paper attributes to
// BWA-MEM (§4.5).
const DefaultCompression = 128

// SA is a suffix array sampled at a fixed interval.
type SA struct {
	intv    int
	samples []int32 // entries at rows 0, intv, 2*intv, ...
	rows    int     // N+1
	idx     *fmindex.Index
}

// New samples every intv-th row of a full-matrix suffix array (N+1 entries,
// row 0 = sentinel). With intv 1 the slice is borrowed, never copied or
// written: it may alias read-only memory such as an mmap'd index section,
// and one slice may back any number of SAs across goroutines. A larger
// interval needs idx, the index of the same text, whose LF mapping recovers
// the unsampled rows.
func New(fullSA []int32, intv int, idx *fmindex.Index) (*SA, error) {
	if intv < 1 {
		return nil, fmt.Errorf("sal: compression interval %d < 1", intv)
	}
	s := &SA{intv: intv, samples: fullSA, rows: len(fullSA), idx: idx}
	if intv == 1 {
		return s, nil
	}
	if idx == nil {
		return nil, fmt.Errorf("sal: compression interval %d needs an index", intv)
	}
	s.samples = make([]int32, (len(fullSA)+intv-1)/intv)
	for i := range s.samples {
		s.samples[i] = fullSA[i*intv]
	}
	return s, nil
}

// Lookup returns the text position of the suffix at row.
func (s *SA) Lookup(row int) int {
	if s.intv == 1 {
		return int(s.samples[row])
	}
	return s.walkLookup(row)
}

// walkLookup is Lookup over a sampled array (BWA's bwt_sa). Walks that
// cross the primary row wrap through the sentinel, handled by the modular
// correction.
func (s *SA) walkLookup(row int) int {
	sample, steps := s.Walk(row)
	v := int(s.samples[sample]) + steps
	if v >= s.rows {
		v -= s.rows
	}
	return v
}

// Walk LF-walks from row to the nearest sampled row and returns that row's
// index in the sample array and the number of LF steps taken.
func (s *SA) Walk(row int) (sample, steps int) {
	for row%s.intv != 0 {
		row = s.idx.LF(row)
		steps++
	}
	return row / s.intv, steps
}

// MemFootprint returns the table size in bytes.
func (s *SA) MemFootprint() int { return 4 * len(s.samples) }

// Interval returns the compression factor.
func (s *SA) Interval() int { return s.intv }
