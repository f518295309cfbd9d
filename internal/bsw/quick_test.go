package bsw

import (
	"testing"
	"testing/quick"
)

// quickJob decodes a random byte string into a plausible extension job, so
// testing/quick can drive the engines through arbitrary inputs.
func quickJob(raw []byte) (Job, bool) {
	if len(raw) < 8 {
		return Job{}, false
	}
	qlen := 1 + int(raw[0])%96
	tlen := 1 + int(raw[1])%96
	h0 := 1 + int(raw[2])%30
	w := 1 + int(raw[3])%100
	need := 4 + qlen + tlen
	if len(raw) < need {
		return Job{}, false
	}
	q := make([]byte, qlen)
	tg := make([]byte, tlen)
	for i := 0; i < qlen; i++ {
		q[i] = raw[4+i] & 3
	}
	for i := 0; i < tlen; i++ {
		tg[i] = raw[4+qlen+i] & 3
	}
	return Job{Query: q, Target: tg, W: w, H0: h0}, true
}

// TestQuickExtendScalarInvariants checks structural invariants of the
// extension result on arbitrary inputs.
func TestQuickExtendScalarInvariants(t *testing.T) {
	p := DefaultParams()
	var buf ScalarBuf
	f := func(raw []byte) bool {
		j, ok := quickJob(raw)
		if !ok {
			return true
		}
		r := ExtendScalar(&p, j.Query, j.Target, j.W, j.H0, &buf, nil)
		switch {
		case r.Score < j.H0: // the seed score is never lost
			return false
		case r.QLE < 0 || r.QLE > len(j.Query):
			return false
		case r.TLE < 0 || r.TLE > len(j.Target):
			return false
		case r.GTLE < 0 || r.GTLE > len(j.Target):
			return false
		case r.GScore > r.Score && r.GScore > j.H0+len(j.Query)*p.MaxMatch():
			return false
		case r.MaxOff < 0:
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestQuickGlobalCigarConsistent verifies with testing/quick that the CIGAR
// produced by the banded global aligner always rescores to the reported
// score and consumes exactly both sequences.
func TestQuickGlobalCigarConsistent(t *testing.T) {
	p := DefaultParams()
	f := func(raw []byte, wRaw uint8) bool {
		j, ok := quickJob(raw)
		if !ok {
			return true
		}
		w := 1 + int(wRaw)%40
		score, cig := Global(&p, j.Query, j.Target, w, int(minusInf))
		qi, ti, re := 0, 0, 0
		for _, e := range cig {
			n := int(e >> 4)
			switch e & 0xf {
			case CigarMatch:
				for k := 0; k < n; k++ {
					re += int(p.Mat[int(j.Target[ti])*5+int(j.Query[qi])])
					qi++
					ti++
				}
			case CigarIns:
				re -= p.OIns + p.EIns*n
				qi += n
			case CigarDel:
				re -= p.ODel + p.EDel*n
				ti += n
			default:
				return false
			}
		}
		return qi == len(j.Query) && ti == len(j.Target) && re == score
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickCigarPushLens checks the CIGAR helper algebra.
func TestQuickCigarPushLens(t *testing.T) {
	f := func(ops []uint8) bool {
		var c Cigar
		wantQ, wantT := 0, 0
		for _, o := range ops {
			n := 1 + int(o>>3)%9
			switch o & 3 {
			case 0:
				c = c.PushOp(CigarMatch, n)
				wantQ += n
				wantT += n
			case 1:
				c = c.PushOp(CigarIns, n)
				wantQ += n
			case 2:
				c = c.PushOp(CigarDel, n)
				wantT += n
			default:
				c = c.PushOp(CigarSoft, n)
				wantQ += n
			}
		}
		q, tl := c.Lens()
		if q != wantQ || tl != wantT {
			return false
		}
		// Merged runs: no two adjacent entries share an op.
		for i := 1; i < len(c); i++ {
			if c[i]&0xf == c[i-1]&0xf {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
