package seq

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// wireRead is the read schema as the encoding/json encoder saw it: the
// struct whose json.Marshal bytes AppendJSONRead must reproduce.
type wireRead struct {
	Name string `json:"name"`
	Seq  string `json:"seq"`
	Qual string `json:"qual,omitempty"`
}

// visited is one visitor call: the field and the read it was given.
type visited struct {
	field string
	rd    Read
}

// decodeAll runs decode over body with visitors on "reads" and "reads2",
// returning every read visited (also those before an error) and the error.
func decodeAll(decode func(io.Reader, map[string]JSONReadVisitor) error, r io.Reader) ([]visited, error) {
	var got []visited
	visitor := func(field string) JSONReadVisitor {
		return func(rd Read) error { got = append(got, visited{field, rd}); return nil }
	}
	err := decode(r, map[string]JSONReadVisitor{"reads": visitor("reads"), "reads2": visitor("reads2")})
	return got, err
}

// sameReads reports the first difference between two visit sequences,
// nil against empty included, or "".
func sameReads(a, b []visited) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d reads visited, want %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		switch {
		case x.field != y.field || x.rd.Name != y.rd.Name:
			return fmt.Sprintf("read %d: field/name %q/%q, want %q/%q", i, x.field, x.rd.Name, y.field, y.rd.Name)
		case !bytes.Equal(x.rd.Seq, y.rd.Seq) || (x.rd.Seq == nil) != (y.rd.Seq == nil):
			return fmt.Sprintf("read %d: seq %q (nil %v), want %q (nil %v)", i, x.rd.Seq, x.rd.Seq == nil, y.rd.Seq, y.rd.Seq == nil)
		case !bytes.Equal(x.rd.Qual, y.rd.Qual) || (x.rd.Qual == nil) != (y.rd.Qual == nil):
			return fmt.Sprintf("read %d: qual %q (nil %v), want %q (nil %v)", i, x.rd.Qual, x.rd.Qual == nil, y.rd.Qual, y.rd.Qual == nil)
		}
	}
	return ""
}

// jsonCodecSeeds is one body per behaviour the decoder shares with
// encoding/json, plus the malformed neighbours of each.
var jsonCodecSeeds = []string{
	// The top level must be an object; bytes after it are not read.
	`{"reads": [{"name": "a", "seq": "ACGT", "qual": "IIII"}, {"name": "b", "seq": "GG"}]}`,
	` {"reads": []}`, `{}`, `{"reads": []} trailing garbage`, `{"reads": []}}`, `{"reads": [{"seq": "A"}]}[`,
	`[1,2]`, `"x"`, `7`, `null`, `not json`, ``, ` `, `{`, `{"reads"`, `{"reads":`, `}`,
	// Fields without a visitor are skipped after a syntax check.
	`{"tag": "x", "reads": [], "extra": {"nested": [1, 2.5e-3, true, false, null, "s", {}, []]}}`,
	`{"x": [1, {"a": tru}], "reads": []}`, `{"x": 01}`, `{"x": 1.}`, `{"x": -}`, `{"x": 1e}`, `{"x": 1e+}`,
	`{"x": -0.0E+7}`, `{"x": 12x}`, `{"x": "\q"}`, `{"x": "\u12G4"}`, `{"x": {"a" 1}}`, `{"x": {"a": 1,}}`,
	`{"x": [1 2]}`, `{"x": [1,]}`, `{"x": {1: 2}}`, `{"x": nul}`, `{"x": nullx}`, `{"x": "a` + "\x01" + `"}`,
	`{"a": 1,}`, `{,}`, `{"a" 1}`, `{"a": 1 "b": 2}`, `{"a": 1}x`, `{"reads": [{"seq": "A"}]}`,
	`{"READS": [{"seq": "A"}]}`, `{"reads": [{"seq": "A"}], "reads": [{"seq": "C"}], "reads2": [{"seq": "G"}]}`,
	// A null array is no reads; any other non-array is an error.
	`{"reads": null}`, `{"reads": 7}`, `{"reads": "x"}`, `{"reads": {}}`, `{"reads": true}`, `{"reads": nul}`,
	`{"reads": [1]}`, `{"reads": ["x"]}`, `{"reads": [[]]}`, `{"reads": [true]}`, `{"reads": [{"name": 1}]}`,
	`{"reads": [{"seq": "A"} {"seq": "C"}]}`, `{"reads": [{"seq": "A"},]}`, `{"reads": [,]}`, `{"reads": [}`,
	`{"reads": [{"seq": "A",}]}`, `{"reads": [{"seq": "A"}}`, `{"reads": [{"seq" "A"}]}`, `{"reads": [{,}]}`,
	// Read keys fold case (Unicode simple folding); the last duplicate wins.
	`{"reads": [{"NAME": "a", "Seq": "AC", "qUAL": "II"}]}`, `{"reads": [{"ſeq": "AC", "nAmE": "K"}]}`,
	`{"reads": [{"seq": "AC", "Qual": "II"}]}`, `{"reads": [{"seq": "A", "seq": "CC", "name": "x", "name": "y"}]}`,
	`{"reads": [{"seqq": "A", "se": "C", "names": "n", "other": {"seq": "T"}}]}`,
	// A null string field is a no-op; a non-string value is an error.
	`{"reads": [{"seq": "AC", "seq": null, "qual": null, "name": null}]}`, `{"reads": [{"seq": 5}]}`,
	`{"reads": [{"name": true}]}`, `{"reads": [{"qual": ["I"]}]}`, `{"reads": [{"seq": {}}]}`, `{"reads": [{"seq": nul}]}`,
	// A null element is a zero read; "qual": "" is no qualities.
	`{"reads": [null, {"seq": "A"}, {}]}`, `{"reads": [{"seq": "A", "qual": ""}, {"seq": "", "qual": "I", "qual": ""}]}`,
	// Escapes, surrogates, invalid UTF-8, raw control bytes.
	`{"reads": [{"name": "é😀\ud800x\udc00\ud800A\ud800", "seq": "AC\/\\\"\b\f\n\r\t"}]}`,
	`{"reads": [{"name": "é\t", "seq": "A\nC"}]}`, "{\"reads\": [{\"name\": \"\xff\xfe\xed\xa0\x80\xc3\", \"seq\": \"A\"}]}",
	"{\"reads\": [{\"name\": \"a\x01b\", \"seq\": \"A\"}]}", `{"reads": [{"name": "a\\", "seq": "A"}]}`,
	`{"reads": [{"name": "a\\\"", "seq": "A"}]}`, `{"reads": [{"name": "\u00", "seq": "A"}]}`, `{"reads": [{"name": "\`,
	// encoding/json's nesting limit for one decoded value.
	`{"x": ` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"x": ` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`,
	`{"reads": [{"x": ` + strings.Repeat("{\"a\":", 9999) + `1` + strings.Repeat("}", 9999) + `, "seq": "A"}]}`,
	`{"reads": [{"x": ` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `, "seq": "A"}]}`,
}

// straddlingBodies are bodies whose tokens cross the decoder's input
// window: a name longer than the window, and reads laid so that strings,
// numbers and literals end on, just before and just after its boundary.
func straddlingBodies() []string {
	long := `{"reads": [{"name": "` + strings.Repeat("n", 3*jsonWindow) + `", "seq": "ACGT"}]}`
	var out []string
	out = append(out, long)
	for pad := jsonWindow - 40; pad < jsonWindow+8; pad += 7 {
		var b strings.Builder
		b.WriteString(`{"pad": "` + strings.Repeat("p", pad) + `", "n": 12345.5e1, "t": true, "reads": [`)
		for i := range 6 {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"name": "ré%d", "seq": "ACGTACGTAC", "qual": "IIIIIIIIII", "z": null}`, i)
		}
		b.WriteString(`]}`)
		out = append(out, b.String())
	}
	return out
}

func addJSONCodecSeeds(f *testing.F) {
	for _, s := range jsonCodecSeeds {
		f.Add([]byte(s))
	}
	full := jsonCodecSeeds[0]
	for i := range len(full) {
		f.Add([]byte(full[:i]))
	}
	for _, s := range straddlingBodies() {
		f.Add([]byte(s))
	}
}

// FuzzDecodeJSONReadsMatchesStd checks the hand-written decoder against the
// encoding/json decoder it replaced: on every body they agree on accept or
// reject and visit the same reads, nil against empty Seq and Qual
// included — read all at once and one byte per Read, so every token also
// crosses a window refill.
func FuzzDecodeJSONReadsMatchesStd(f *testing.F) {
	addJSONCodecSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		want, werr := decodeAll(stdDecodeJSONReads, bytes.NewReader(body))
		for _, r := range []io.Reader{bytes.NewReader(body), iotest.OneByteReader(bytes.NewReader(body))} {
			got, err := decodeAll(DecodeJSONReads, r)
			if (err == nil) != (werr == nil) {
				t.Fatalf("error %v, encoding/json %v", err, werr)
			}
			if d := sameReads(got, want); d != "" {
				t.Fatal(d)
			}
		}
	})
}

// TestDecodeJSONReadsMatchesStd runs the differential check over the seeds
// by name, so a regression points at the behaviour it broke.
func TestDecodeJSONReadsMatchesStd(t *testing.T) {
	for i, body := range append(jsonCodecSeeds, straddlingBodies()...) {
		want, werr := decodeAll(stdDecodeJSONReads, strings.NewReader(body))
		got, err := decodeAll(DecodeJSONReads, iotest.HalfReader(strings.NewReader(body)))
		if (err == nil) != (werr == nil) {
			t.Errorf("seed %d %.60q: error %v, encoding/json %v", i, body, err, werr)
		}
		if d := sameReads(got, want); d != "" {
			t.Errorf("seed %d %.60q: %s", i, body, d)
		}
	}
}

// FuzzAppendJSONReads checks the encoder against json.Marshal of the wire
// struct it replaced, byte for byte, appended after existing bytes.
func FuzzAppendJSONReads(f *testing.F) {
	for _, s := range [][3]string{
		{"r1", "ACGTN", "IIII#"},
		{"", "", ""},
		{"a<b>&c", "AC\"GT\\", ""},
		{"\x00\x01\b\f\n\r\t\x1f\x7f", "é\u2028\u2029😀", "\xff\xfe\xed\xa0\x80\xc3"},
		{"é\U0001F600", "acgt", "!~"},
	} {
		f.Add(s[0], []byte(s[1]), []byte(s[2]))
	}
	f.Fuzz(func(t *testing.T, name string, seq, qual []byte) {
		want, err := json.Marshal(wireRead{Name: name, Seq: string(seq), Qual: string(qual)})
		if err != nil {
			t.Fatal(err)
		}
		got := AppendJSONRead([]byte("[,"), name, seq, qual)
		if !bytes.Equal(got[2:], want) || string(got[:2]) != "[," {
			t.Fatalf("AppendJSONRead wrote\n%q\njson.Marshal writes\n%q", got[2:], want)
		}
	})
}

// benchReadsBody is a request shaped like the benchmark's: 100 reads of
// 101 bp with simulator names and Q32-Q39 qualities, as the client
// encodes them.
func benchReadsBody() ([]Read, []byte) {
	reads := make([]Read, 100)
	body := []byte(`{"reads":[`)
	for i := range reads {
		s, q := make([]byte, 101), make([]byte, 101)
		for j := range s {
			s[j], q[j] = "ACGT"[(i*7+j*13)%4], byte('A'+(i+j*5)%8)
		}
		reads[i] = Read{Name: fmt.Sprintf("se101_%d_%d_+", i, 1000+37*i), Seq: s, Qual: q}
		if i > 0 {
			body = append(body, ',')
		}
		body = AppendJSONRead(body, reads[i].Name, s, q)
	}
	return reads, append(body, "]}"...)
}

func BenchmarkDecodeJSONReads(b *testing.B) {
	_, body := benchReadsBody()
	for _, impl := range []struct {
		name   string
		decode func(io.Reader, map[string]JSONReadVisitor) error
	}{{"codec", DecodeJSONReads}, {"encoding_json", stdDecodeJSONReads}} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			n := 0
			fields := map[string]JSONReadVisitor{"reads": func(Read) error { n++; return nil }}
			for range b.N {
				if err := impl.decode(bytes.NewReader(body), fields); err != nil {
					b.Fatal(err)
				}
			}
			if n != 100*b.N {
				b.Fatalf("%d reads decoded, want %d", n, 100*b.N)
			}
		})
	}
}

// benchSink keeps the encoded bodies live, so the compiler cannot drop the
// measured calls.
var benchSink []byte

func BenchmarkAppendJSONReads(b *testing.B) {
	reads, body := benchReadsBody()
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for range b.N {
			out := make([]byte, 0, len(body))
			out = append(out, `{"reads":[`...)
			for i := range reads {
				if i > 0 {
					out = append(out, ',')
				}
				out = AppendJSONRead(out, reads[i].Name, reads[i].Seq, reads[i].Qual)
			}
			benchSink = append(out, "]}"...)
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for range b.N {
			wire := make([]wireRead, len(reads))
			for i, r := range reads {
				wire[i] = wireRead{Name: r.Name, Seq: string(r.Seq), Qual: string(r.Qual)}
			}
			out, err := json.Marshal(struct {
				Reads []wireRead `json:"reads"`
			}{wire})
			if err != nil {
				b.Fatal(err)
			}
			benchSink = out
		}
	})
}

// TestDecodeJSONReadsAllocs holds decoding to at most two allocations per
// read: the name, plus the window, the arena chunks and the call's own
// bookkeeping spread over the request.
func TestDecodeJSONReadsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	_, body := benchReadsBody()
	fields := map[string]JSONReadVisitor{"reads": func(Read) error { return nil }}
	allocs := testing.AllocsPerRun(20, func() {
		if err := DecodeJSONReads(bytes.NewReader(body), fields); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2*100 {
		t.Fatalf("%.0f allocations decoding 100 reads, want at most 200", allocs)
	}
	t.Logf("%.0f allocations decoding 100 reads", allocs)
}
