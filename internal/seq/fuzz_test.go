package seq

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzFastqScanner feeds arbitrary bytes to the request-body FASTQ decoder.
// It must never panic, and every record it yields must survive WriteFastq
// and a rescan unchanged — the scanner and the writer agree on the format.
func FuzzFastqScanner(f *testing.F) {
	for _, seed := range []string{
		"@r1\nACGTACGT\n+\nIIIIIIII\n@r2 desc\nGGGG\n+\n!!!!\n",
		"@r\nACGT\n+\nIIII\n\n\n",
		"@r\r\nACGT\r\n+\r\nIIII\r\n",
		"@r\n\n+\n\n",
		"@r\nACGT\n+\nIIII", // no final newline
		"not-a-header\nACGT\n+\nIIII\n",
		"@r\nACGT\nIIII\n",
		"@r\nACGT\n+\nII\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var recs []Read
		sc := NewFastqScanner(bytes.NewReader(body))
		for sc.Scan() {
			recs = append(recs, sc.Record())
		}
		if len(recs) == 0 {
			return
		}
		var buf bytes.Buffer
		if err := WriteFastq(&buf, recs); err != nil {
			t.Fatal(err)
		}
		sc = NewFastqScanner(&buf)
		for i, want := range recs {
			if !sc.Scan() {
				t.Fatalf("rescan stopped at record %d of %d: %v", i, len(recs), sc.Err())
			}
			got := sc.Record()
			if got.Name != want.Name || !bytes.Equal(got.Seq, want.Seq) || !bytes.Equal(got.Qual, want.Qual) {
				t.Fatalf("record %d changed in a round trip:\n got %q %q %q\nwant %q %q %q",
					i, got.Name, got.Seq, got.Qual, want.Name, want.Seq, want.Qual)
			}
		}
		if sc.Scan() || sc.Err() != nil {
			t.Fatalf("rescan: extra record or error %v after %d records", sc.Err(), len(recs))
		}
	})
}

// FuzzDecodeJSONReads feeds arbitrary bytes to the request-body JSON
// decoder. It must never panic, and when it accepts a body, every read it
// visited must be well formed: re-encoded in the wire schema and decoded
// again, it comes back unchanged.
func FuzzDecodeJSONReads(f *testing.F) {
	for _, seed := range []string{
		`{"reads": [{"name": "a", "seq": "ACGT", "qual": "IIII"}, {"name": "b", "seq": "GG"}]}`,
		`{"tag": "x", "reads": [], "extra": {"nested": [1, 2]}}`,
		`{"reads1": [{"name": "p", "seq": "AC"}], "reads2": [{"name": "p", "seq": "GT"}]}`,
		`{"reads": null}`,
		`{"reads": [{"name": "é\t", "seq": "A\nC"}]}`,
		`[1,2]`, `{`, `{"reads": 7}`, `not json`, `{"reads": [{"name": 1}]}`,
	} {
		f.Add([]byte(seed))
	}
	decode := func(body []byte) ([]Read, error) {
		var got []Read
		err := DecodeJSONReads(bytes.NewReader(body), map[string]JSONReadVisitor{
			"reads": func(rd Read) error { got = append(got, rd); return nil },
		})
		return got, err
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		reads, err := decode(body)
		if err != nil {
			return
		}
		type wire struct {
			Name string `json:"name"`
			Seq  string `json:"seq"`
			Qual string `json:"qual,omitempty"`
		}
		var req struct {
			Reads []wire `json:"reads"`
		}
		for _, rd := range reads {
			if rd.Qual != nil && len(rd.Qual) == 0 {
				t.Fatalf("read %q: empty non-nil quality", rd.Name)
			}
			req.Reads = append(req.Reads, wire{Name: rd.Name, Seq: string(rd.Seq), Qual: string(rd.Qual)})
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decode(enc)
		if err != nil {
			t.Fatalf("re-encoded reads rejected: %v\n%s", err, enc)
		}
		if len(again) != len(reads) {
			t.Fatalf("%d reads decoded, %d after a round trip", len(reads), len(again))
		}
		for i := range reads {
			a, b := reads[i], again[i]
			if a.Name != b.Name || !bytes.Equal(a.Seq, b.Seq) || !bytes.Equal(a.Qual, b.Qual) ||
				(a.Qual == nil) != (b.Qual == nil) {
				t.Fatalf("read %d changed in a round trip: %+v vs %+v", i, a, b)
			}
		}
	})
}
