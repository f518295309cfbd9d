package bsw

import (
	"bytes"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
)

// setJob16, where extend_amd64.s is built, switches haveJob16 and returns
// a function that restores it (job16_amd64_test.go); elsewhere it is nil.
var setJob16 func(on bool) (restore func())

// TestJobPath reports which kernels ExtendScalar and Global run on, and
// fails if the assembly kernels are built and /proc/cpuinfo lists
// AVX-512BW but a Go path was selected.
func TestJobPath(t *testing.T) {
	path, fill := "the int32 Go row", "the Go fill"
	if haveJob16 {
		path = "AVX-512BW extendJob16"
	}
	if haveGlobalVec {
		fill = "AVX-512 globalJob32"
	}
	t.Logf("ExtendScalar jobs run on %s, Global fills on %s (assembly kernels built: %v)", path, fill, setJob16 != nil)
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(val)
			break
		}
	}
	if setJob16 != nil && slices.Contains(flags, "avx512f") && slices.Contains(flags, "avx512bw") && (!haveJob16 || !haveGlobalVec) {
		t.Fatalf("the CPU lists avx512f and avx512bw but ExtendScalar runs on %s and Global on %s", path, fill)
	}
}

// TestRow16FitsEnvelope pins the edges of the int16 job kernel's admission,
// which FuzzExtendJob straddles.
func TestRow16FitsEnvelope(t *testing.T) {
	base := DefaultParams()
	q := make([]byte, 100)
	for _, c := range []struct {
		name string
		edit func(p *Params)
		h0   int
		want bool
	}{
		{"defaults", func(*Params) {}, 30, true},
		{"h0 at the Fits16 edge", func(*Params) {}, 32767 - 100, true},
		{"h0 past the Fits16 edge", func(*Params) {}, 32767 - 99, false},
		{"negative h0", func(*Params) {}, -1, false},
		{"gap costs at the edge", func(p *Params) { p.ODel, p.EDel, p.OIns, p.EIns = row16MaxGap, row16MaxGap, row16MaxGap, row16MaxGap }, 30, true},
		{"insertion extend past the edge", func(p *Params) { p.EIns = row16MaxGap + 1 }, 30, false},
		{"deletion open past the edge", func(p *Params) { p.ODel = row16MaxGap + 1 }, 30, false},
		{"negative gap extend", func(p *Params) { p.EDel = -1 }, 30, false},
	} {
		p := base
		c.edit(&p)
		if got := row16Fits(&p, q, c.h0); got != c.want {
			t.Errorf("%s: row16Fits = %v, want %v", c.name, got, c.want)
		}
	}
	zero := base
	zero.Mat = FillScoreMatrix(0, 4)
	if row16Fits(&zero, make([]byte, 1<<15), 0) {
		t.Error("a query of 32768 columns was admitted")
	}
}

// row16MaxGap is the largest gap cost row16Fits admits.
const row16MaxGap = 1<<10 - 1

// FuzzExtendJob requires extendJob16 to match the int32 Go row exactly: the
// same ExtResult and CellStats, vector steps included, and no store past
// row -1's qlen+1 cells. The inputs straddle row16Fits's envelope: h0 at
// the Fits16 edge and one either side (hEdge odd), gap costs up to 1023,
// z-drop 0 or large, bands from 0 to past qlen, qlen 0-300, targets longer
// and shorter than the query, and N bases.
func FuzzExtendJob(f *testing.F) {
	rng := rand.New(rand.NewSource(53))
	q := randSeq(rng, 101)
	long := randSeq(rng, 300)
	f.Add([]byte{}, []byte{1, 2}, uint8(0), uint8(3), uint16(6), uint16(1), uint16(6), uint16(1), uint16(100), uint16(100), uint16(30), uint8(0))
	f.Add(q, mutate(rng, q, 4), uint8(0), uint8(3), uint16(6), uint16(1), uint16(6), uint16(1), uint16(100), uint16(100), uint16(30), uint8(0))
	f.Add(q[:33], append(mutate(rng, q[:20], 1), q[24:60]...), uint8(1), uint8(5), uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), uint8(1))
	f.Add(long, mutate(rng, long, 20), uint8(0), uint8(3), uint16(1023), uint16(1023), uint16(1023), uint16(1023), uint16(60000), uint16(7), uint16(500), uint8(2))
	f.Add(long[:250], randSeq(rng, 90), uint8(4), uint8(7), uint16(5), uint16(2), uint16(3), uint16(4), uint16(100), uint16(400), uint16(0), uint8(3))
	f.Add(q[:64], append(mutate(rng, q[:64], 2), randSeq(rng, 200)...), uint8(2), uint8(0), uint16(12), uint16(3), uint16(9), uint16(2), uint16(30), uint16(64), uint16(1), uint8(5))
	f.Add(append([]byte{4, 4, 4}, q[:40]...), append([]byte{4, 4}, q[:40]...), uint8(0), uint8(3), uint16(6), uint16(1), uint16(6), uint16(1), uint16(100), uint16(10), uint16(20), uint8(0))
	// Every pair mismatches at -1 and deletions cost 1 each, so each row's
	// cells tie at its maximum 32 columns apart, and the last of them
	// decides z-drop.
	f.Add(bytes.Repeat([]byte{0}, 80), bytes.Repeat([]byte{1}, 90), uint8(0), uint8(1), uint16(0), uint16(1), uint16(6), uint16(1), uint16(40), uint16(100), uint16(100), uint8(0))
	// A row of exactly 32 cells ends short of the query, so the kernel
	// stores its eh[end] and ee[end] without a tail lane to carry them.
	f.Add([]byte("000908008982022210211111821821208000"), []byte("012011008820080280"), uint8(4), uint8(4), uint16(5), uint16(2), uint16(3), uint16(4), uint16(100), uint16(400), uint16(42), uint8(2))
	f.Fuzz(func(t *testing.T, rawQ, rawT []byte, match, mis uint8, oDel, eDel, oIns, eIns, zdrop, w, h0 uint16, hEdge uint8) {
		if setJob16 == nil || !haveJob16 {
			t.Skip("extendJob16 does not run on this CPU/build")
		}
		if len(rawQ) > 300 || len(rawT) > 400 {
			return
		}
		g := func(v uint16) int { return int(v) % (row16MaxGap + 1) }
		p := Params{
			Mat:  FillScoreMatrix(1+int(match)%8, int(mis)%9),
			ODel: g(oDel), EDel: g(eDel), OIns: g(oIns), EIns: g(eIns),
			Zdrop: int(zdrop), EndBonus: int(match) % 11,
		}
		query, target := fuzzSeq(rawQ), fuzzSeq(rawT)
		bw := int(w) % (len(query) + 40)
		bh0 := int(h0) % 3000
		if hEdge%2 == 1 {
			bh0 = 32767 - len(query)*p.MaxMatch() + int(hEdge/2)%3 - 1
		}
		fits := row16Fits(&p, query, bh0)
		const pad = 40 // cells past row -1 that must stay untouched
		buf := ScalarBuf{h16: make([]int16, len(query)+1+pad), e16: make([]int16, len(query)+1+pad)}
		for j := len(query) + 1; j < len(buf.h16); j++ {
			buf.h16[j], buf.e16[j] = -7, -9
		}
		var got, want CellStats
		res := ExtendScalar(&p, query, target, bw, bh0, &buf, &got)
		lanes := 0
		if fits {
			lanes = row16Lanes
		}
		ref := extendGo(&p, query, target, clampBand(&p, len(query), bw), bh0, &ScalarBuf{}, &want, lanes)
		if res != ref || got != want {
			t.Fatalf("fits16 %v w=%d h0=%d %+v:\ngot  %+v %+v\nwant %+v %+v", fits, bw, bh0, p, res, got, ref, want)
		}
		h16, e16 := buf.h16[:cap(buf.h16)], buf.e16[:cap(buf.e16)]
		for j := len(query) + 1; j < len(h16); j++ {
			if h16[j] != -7 || e16[j] != -9 {
				t.Fatalf("qlen %d: wrote past row -1 at %d", len(query), j)
			}
		}
	})
}

// BenchmarkExtendScalar times ExtendScalar over seeded extension jobs on
// each path: kernel=go switches the job kernel off where it could run, and
// kernel=job16 is skipped where it cannot.
func BenchmarkExtendScalar(b *testing.B) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(52))
	jobs := make([]Job, 512)
	for i := range jobs {
		q := randSeq(rng, 1+rng.Intn(150))
		tg := append(mutate(rng, q, rng.Intn(6)), randSeq(rng, rng.Intn(20))...)
		jobs[i] = Job{Query: q, Target: tg, W: 100, H0: 1 + rng.Intn(60)}
	}
	for _, c := range []struct {
		name string
		vec  bool
	}{{"kernel=go", false}, {"kernel=job16", true}} {
		b.Run(c.name, func(b *testing.B) {
			switch {
			case c.vec && !haveJob16:
				b.Skip("extendJob16 does not run on this CPU/build")
			case !c.vec && haveJob16:
				defer setJob16(false)()
			}
			var buf ScalarBuf
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := &jobs[i%len(jobs)]
				benchSink = ExtendScalar(&p, j.Query, j.Target, j.W, j.H0, &buf, nil)
			}
		})
	}
}

var benchSink ExtResult
