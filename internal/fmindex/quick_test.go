package fmindex

import (
	"testing"
	"testing/quick"
)

// TestQuickOccTablesAgree drives every occurrence-table layout with
// testing/quick: on any BWT column they must report identical ranks at
// every position — the foundation of the modes-identical guarantee.
func TestQuickOccTablesAgree(t *testing.T) {
	f := func(raw []byte, at uint16) bool {
		if len(raw) == 0 {
			return true
		}
		b0 := make([]byte, len(raw))
		for i, b := range raw {
			b0[i] = b & 3
		}
		o128, obp := NewOcc128(b0), NewOccBP(b0)
		k := int(at)%(len(b0)+1) - 1 // in [-1, len-1]
		if o128.Count4(k) != obp.Count4(k) {
			return false
		}
		for c := byte(0); c < 4; c++ {
			if o128.Count(c, k) != obp.Count(c, k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickRankSumsToPosition checks the rank identity: the four per-base
// ranks at any position sum to the number of symbols counted.
func TestQuickRankSumsToPosition(t *testing.T) {
	f := func(raw []byte, at uint16) bool {
		if len(raw) == 0 {
			return true
		}
		b0 := make([]byte, len(raw))
		for i, b := range raw {
			b0[i] = b & 3
		}
		k := int(at) % len(b0)
		for _, counts := range [][4]int{NewOcc128(b0).Count4(k), NewOccBP(b0).Count4(k)} {
			if counts[0]+counts[1]+counts[2]+counts[3] != k+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
