package ordered

import (
	"bytes"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/testutil"
)

// FuzzOrderedWriter drives a Writer through arbitrary call sequences: n
// slots completed in the order the bytes of order name them (each slot at
// most once; a slot order never names stays a hole), a wanted header or
// none, and SetHeader called before the first completion, after any of
// them, or never (headerAt 255). Once CloseAndWait returns, the body must
// be the header (when wanted and delivered) plus the longest contiguous
// completed prefix in index order, Written and Missing must account for it
// exactly, and the writer goroutine must be gone. EnsureHeader runs when
// no slot is missing, as both tiers call it on their success path.
func FuzzOrderedWriter(f *testing.F) {
	f.Add(uint8(4), []byte{2, 0, 3, 1}, true, uint8(4))    // out of order, late header
	f.Add(uint8(4), []byte{0, 1, 3}, true, uint8(0))       // hole at 2, early header
	f.Add(uint8(3), []byte{1, 0, 1, 2}, false, uint8(1))   // repeated index, no header
	f.Add(uint8(2), []byte{0, 1}, true, uint8(255))        // header never delivered
	f.Add(uint8(0), []byte{}, true, uint8(0))              // header-only response
	f.Add(uint8(5), []byte{4, 3, 2, 1, 0}, true, uint8(2)) // header mid-sequence
	f.Fuzz(func(t *testing.T, n uint8, order []byte, wantHeader bool, headerAt uint8) {
		slots := int(n % 65)
		var seq []int
		seen := make([]bool, slots)
		for _, b := range order {
			if slots == 0 {
				break
			}
			if i := int(b) % slots; !seen[i] {
				seen[i] = true
				seq = append(seq, i)
			}
		}
		rec := func(i int) []byte { return []byte("r" + strconv.Itoa(i) + "\n") }
		header := []byte("@HD\tVN:1.6\n")

		base := testutil.Goroutines()
		w := httptest.NewRecorder()
		o := New(w, slots, wantHeader)
		fired := false
		o.OnFirstWrite(func() { fired = true })
		delivered := false
		setHeaderAt := -1 // never
		if headerAt != 255 {
			setHeaderAt = int(headerAt) % (len(seq) + 1)
		}
		for k := 0; k <= len(seq); k++ {
			if k == setHeaderAt {
				o.SetHeader(header)
				delivered = wantHeader
			}
			if k < len(seq) {
				o.Complete(seq[k], rec(seq[k]))
			}
		}
		if err := o.CloseAndWait(); err != nil {
			t.Fatal(err)
		}
		if o.Missing() != slots-len(seq) {
			t.Fatalf("Missing() = %d, want %d", o.Missing(), slots-len(seq))
		}
		if o.Missing() == 0 {
			o.EnsureHeader()
		}

		prefix := 0
		for prefix < slots && seen[prefix] {
			prefix++
		}
		var want []byte
		if (!wantHeader || delivered) && (prefix > 0 || len(seq) == slots) {
			if wantHeader {
				want = append(want, header...)
			}
			for i := 0; i < prefix; i++ {
				want = append(want, rec(i)...)
			}
		}
		if got := w.Body.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("body %q, want %q", got, want)
		}
		if o.Written() != int64(w.Body.Len()) {
			t.Fatalf("Written() = %d, body has %d bytes", o.Written(), w.Body.Len())
		}
		if o.Started() != (len(want) > 0) || fired != (len(want) > 0) {
			t.Fatalf("Started() = %v, OnFirstWrite fired = %v, body %d bytes", o.Started(), fired, len(want))
		}
		testutil.CheckGoroutines(t, base, 0)
	})
}
