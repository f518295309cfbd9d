package bsw

import (
	"encoding/binary"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
)

// setRow16, where extend_amd64.s is built, switches haveRow16 and returns
// a function that restores it (row16_amd64_test.go); elsewhere it is nil.
var setRow16 func(on bool) (restore func())

// TestRowPath reports which row kernel ExtendScalar runs on, and fails if
// the assembly kernel is built and /proc/cpuinfo lists AVX-512BW but the
// int32 extendRow was selected.
func TestRowPath(t *testing.T) {
	path := "int32 extendRow"
	if haveRow16 {
		path = "AVX-512BW extendRow16"
	}
	t.Logf("ExtendScalar rows run on %s (assembly kernel built: %v)", path, setRow16 != nil)
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
	if setRow16 != nil && slices.Contains(flags, "avx512f") && slices.Contains(flags, "avx512bw") && !haveRow16 {
		t.Fatal("the CPU lists avx512f and avx512bw but ExtendScalar selected the int32 row")
	}
}

// TestRow16FitsEnvelope pins the edges of the int16 row kernel's admission:
// FuzzExtendRow only exercises values inside it.
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

// Row value limits inside row16Fits's envelope: M = Mp + q and every H, E
// and F stay at or below 32767, and the gap costs at or below 1023.
const (
	row16MaxH   = 32767 - 127
	row16MaxE   = 32767
	row16MaxGap = 1<<10 - 1
)

// FuzzExtendRow requires extendRow16 to match the int32 extendRow exactly
// on arbitrary in-range rows: the same h and e, h1, m and mj, and no store
// past the row. Each cell takes 5 bytes of raw (H, E as uint16, q as int8),
// so rows run 0..300 cells, every chunk count and tail length; shift scales
// the values down so small and zero cells are common too.
func FuzzExtendRow(f *testing.F) {
	seed := func(n int, fill byte) []byte {
		b := make([]byte, 5*n)
		for i := range b {
			b[i] = fill + byte(i*37)
		}
		return b
	}
	f.Add([]byte{}, uint16(7), uint16(6), uint16(1), uint16(6), uint16(1), uint8(0))
	f.Add(seed(1, 3), uint16(0), uint16(6), uint16(1), uint16(6), uint16(1), uint8(12))
	f.Add(seed(31, 0), uint16(40), uint16(6), uint16(1), uint16(6), uint16(1), uint8(9))
	f.Add(seed(33, 9), uint16(32000), uint16(0), uint16(1), uint16(0), uint16(1), uint8(0))
	f.Add(seed(96, 1), uint16(100), uint16(1023), uint16(1023), uint16(1023), uint16(1023), uint8(4))
	f.Add(seed(300, 5), uint16(500), uint16(5), uint16(2), uint16(3), uint16(4), uint8(8))
	f.Add(make([]byte, 5*70), uint16(0), uint16(6), uint16(1), uint16(6), uint16(1), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, h1, oDel, eDel, oIns, eIns uint16, shift uint8) {
		n := min(len(raw)/5, 300)
		sh := shift % 16
		val := func(b []byte, limit int) int { return int(binary.LittleEndian.Uint16(b)>>sh) % (limit + 1) }
		const pad = 40 // cells past the row that must stay untouched
		h16, e16 := make([]int16, n+pad), make([]int16, n+pad)
		h32, e32 := make([]int32, n), make([]int32, n)
		q := make([]int8, n)
		for j := 0; j < n; j++ {
			c := raw[5*j:]
			h32[j], e32[j] = int32(val(c, row16MaxH)), int32(val(c[2:], row16MaxE))
			h16[j], e16[j] = int16(h32[j]), int16(e32[j])
			q[j] = int8(c[4])
		}
		for j := n; j < n+pad; j++ {
			h16[j], e16[j] = -7, -9
		}
		g := func(v uint16) int { return int(v) % (row16MaxGap + 1) }
		od, ed, oi, ei := g(oDel), g(eDel), g(oIns), g(eIns)
		hin := int(h1>>sh) % (row16MaxE + 1)
		wh1, wm, wmj := extendRow(h32, e32, q, int32(hin), int32(od+ed), int32(ed), int32(oi+ei), int32(ei))
		gh1, gm, gmj := extendRow16(h16[:n], e16[:n], q, int16(hin), int16(od+ed), int16(ed), int16(oi+ei), int16(ei))
		if int32(gh1) != wh1 || int32(gm) != wm || gmj != wmj {
			t.Fatalf("n=%d gaps %d/%d/%d/%d h1 %d: got (h1 %d, m %d, mj %d), want (%d, %d, %d)",
				n, od, ed, oi, ei, hin, gh1, gm, gmj, wh1, wm, wmj)
		}
		for j := 0; j < n; j++ {
			if int32(h16[j]) != h32[j] || int32(e16[j]) != e32[j] {
				t.Fatalf("n=%d col %d: got h %d e %d, want h %d e %d", n, j, h16[j], e16[j], h32[j], e32[j])
			}
		}
		for j := n; j < n+pad; j++ {
			if h16[j] != -7 || e16[j] != -9 {
				t.Fatalf("n=%d: wrote past the row at %d", n, j)
			}
		}
	})
}

// BenchmarkExtendScalar times ExtendScalar over seeded extension jobs on
// each row kernel: row=int32 switches the vector row off where it could
// run, and row=avx512bw is skipped where it cannot.
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
	}{{"row=int32", false}, {"row=avx512bw", true}} {
		b.Run(c.name, func(b *testing.B) {
			switch {
			case c.vec && !haveRow16:
				b.Skip("extendRow16 does not run on this CPU/build")
			case !c.vec && haveRow16:
				defer setRow16(false)()
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
