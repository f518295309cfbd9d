package gateway

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/pkg/bwaclient"
)

// fakeStream serves body as an align response and returns the client-side
// SAMStream over it — the same decoding path the gateway reads upstreams
// through.
func fakeStream(t *testing.T, body string) *bwaclient.SAMStream {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/x-sam")
		_, _ = io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	cl, err := bwaclient.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Align(context.Background(), []bwaclient.Read{{Name: "r", Seq: []byte("ACGT"), Qual: []byte("IIII")}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// rec builds one SAM record line with the given name and flag.
func rec(name string, flag int) string {
	return fmt.Sprintf("%s\t%d\tchr1\t100\t60\t4M\t*\t0\t0\tACGT\tIIII\n", name, flag)
}

func collectGroups(t *testing.T, body string, quota int) (hdr string, groups []string, n int, err error) {
	t.Helper()
	st := fakeStream(t, body)
	gotHdr := false
	n, err = splitGroups(st, quota, func(h []byte) {
		if gotHdr {
			t.Fatal("onHeader called twice")
		}
		gotHdr = true
		hdr = string(h)
	}, func(g []byte) {
		groups = append(groups, string(g))
	})
	if err == nil && !gotHdr {
		t.Fatal("onHeader never called on a clean stream")
	}
	return hdr, groups, n, err
}

func TestSplitGroupsSingleEnd(t *testing.T) {
	header := "@SQ\tSN:chr1\tLN:60000\n@PG\tID:bwa\n"
	body := header + rec("a", 0) + rec("b", 16) + rec("c", 4)
	hdr, groups, n, err := collectGroups(t, body, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hdr != header {
		t.Fatalf("header %q, want %q", hdr, header)
	}
	if n != 3 || len(groups) != 3 {
		t.Fatalf("got %d groups (%d reported), want 3", len(groups), n)
	}
	want := []string{rec("a", 0), rec("b", 16), rec("c", 4)}
	for i := range want {
		if groups[i] != want[i] {
			t.Fatalf("group %d = %q, want %q", i, groups[i], want[i])
		}
	}
}

func TestSplitGroupsAttachesSecondaries(t *testing.T) {
	// Secondary (0x100) and supplementary (0x800) records belong to the
	// preceding primary's group.
	body := rec("a", 0) + rec("a", 256) + rec("a", 2048) + rec("b", 16)
	_, groups, _, err := collectGroups(t, body, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	if want := rec("a", 0) + rec("a", 256) + rec("a", 2048); groups[0] != want {
		t.Fatalf("group 0 = %q, want %q", groups[0], want)
	}
	if groups[1] != rec("b", 16) {
		t.Fatalf("group 1 = %q, want %q", groups[1], rec("b", 16))
	}
}

func TestSplitGroupsPairedQuota(t *testing.T) {
	// Paired groups hold two primaries (one per mate) plus attachments.
	body := rec("p1", 99) + rec("p1", 147) + rec("p1", 2147) +
		rec("p2", 77) + rec("p2", 141)
	_, groups, _, err := collectGroups(t, body, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	if !strings.Contains(groups[0], "\t2147\t") {
		t.Fatalf("supplementary record not attached to its pair group: %q", groups[0])
	}
}

func TestSplitGroupsHeaderOnly(t *testing.T) {
	hdr, groups, n, err := collectGroups(t, "@SQ\tSN:chr1\tLN:9\n", 1)
	if err != nil {
		t.Fatal(err)
	}
	if hdr != "@SQ\tSN:chr1\tLN:9\n" || n != 0 || len(groups) != 0 {
		t.Fatalf("header-only stream: hdr=%q n=%d groups=%d", hdr, n, len(groups))
	}
}

func TestSplitGroupsErrors(t *testing.T) {
	// A stream opening with a non-primary record is corrupt.
	if _, _, _, err := collectGroups(t, rec("a", 256), 1); err == nil {
		t.Fatal("no error for group opening with a secondary record")
	}
	// A cleanly-ended stream whose final group is short of quota is a
	// truncated paired response, not a complete group.
	if _, _, _, err := collectGroups(t, rec("p1", 99), 2); err == nil {
		t.Fatal("no error for final group below quota")
	}
	// A body cut mid-record must surface the stream error. Group "a" was
	// proven complete by the arrival of primary "b" and is delivered; the
	// group being cut ("b") is not — and neither is a fully-buffered final
	// group, since only a clean EOF proves no attachments follow it.
	body := rec("a", 0) + rec("b", 16) + "c\t16\tchr1\t200\t60\t4M\t*\t0\t0\tACGT\tIII"
	st := fakeStream(t, body)
	var groups int
	n, err := splitGroups(st, 1, nil, func([]byte) { groups++ })
	if err == nil {
		t.Fatal("no error for truncated stream")
	}
	if n != 1 || groups != 1 {
		t.Fatalf("truncated stream delivered %d groups, want exactly the 1 proven-complete one", groups)
	}
	// Garbage where the flag field should be is an error, not a group.
	if _, _, _, err := collectGroups(t, "notasamrecord\tnope\n", 1); err == nil {
		t.Fatal("no error for unparseable flag field")
	}
}

// FuzzSplitGroups feeds arbitrary upstream bodies through the client's
// SAMStream into splitGroups, which must never panic. Every group it
// delivers opens with a primary and holds exactly quota primaries, and a
// clean split loses nothing: header plus groups are the body's lines as
// SAMStream splits them, each ending in a newline.
func FuzzSplitGroups(f *testing.F) {
	var body atomic.Pointer[string]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/x-sam")
		_, _ = io.WriteString(w, *body.Load())
	}))
	f.Cleanup(ts.Close)
	cl, err := bwaclient.New(ts.URL)
	if err != nil {
		f.Fatal(err)
	}
	header := "@SQ\tSN:chr1\tLN:60000\n@PG\tID:bwa\n"
	f.Add(header+rec("a", 0)+rec("a", 256)+rec("a", 2048)+rec("b", 16)+rec("c", 4), false)
	f.Add(rec("p1", 99)+rec("p1", 147)+rec("p1", 2147)+rec("p2", 77)+rec("p2", 141), true)
	f.Add(header, false)
	f.Add(rec("a", 256), false)
	f.Add(rec("p1", 99), true)
	f.Add(rec("a", 0)+"b\t16\tchr1\t200", false)
	f.Add(strings.ReplaceAll(header+rec("a", 0)+"@CO\tlate\n", "\n", "\r\n"), false)
	f.Fuzz(func(t *testing.T, in string, paired bool) {
		quota := 1
		if paired {
			quota = 2
		}
		body.Store(&in)
		st, err := cl.Align(context.Background(), []bwaclient.Read{{Name: "r", Seq: []byte("ACGT"), Qual: []byte("IIII")}})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		var out bytes.Buffer
		headers, groups := 0, 0
		n, err := splitGroups(st, quota, func(h []byte) {
			headers++
			out.Write(h)
		}, func(g []byte) {
			groups++
			checkGroup(t, g, quota)
			out.Write(g)
		})
		if n != groups {
			t.Fatalf("splitGroups reported %d groups, delivered %d", n, groups)
		}
		if err != nil {
			return
		}
		if headers != 1 {
			t.Fatalf("onHeader called %d times on a clean stream", headers)
		}
		if in != "" && !strings.HasSuffix(in, "\n") {
			t.Fatal("clean split of a body cut mid-line")
		}
		if want := samLines(in); out.String() != want {
			t.Fatalf("header+groups = %q, want %q", out.String(), want)
		}
	})
}

// checkGroup fails t unless g is newline-terminated SAM lines that open
// with a primary record and hold exactly quota primaries.
func checkGroup(t *testing.T, g []byte, quota int) {
	t.Helper()
	if !bytes.HasSuffix(g, []byte("\n")) {
		t.Fatalf("group %q does not end in a newline", g)
	}
	primaries := 0
	for i, line := range bytes.Split(g[:len(g)-1], []byte("\n")) {
		flag, err := recordFlag(line)
		if err != nil {
			t.Fatalf("group %q: %v", g, err)
		}
		primary := flag&samFlagPrimaryMask == 0
		if i == 0 && !primary {
			t.Fatalf("group %q opens with a non-primary record", g)
		}
		if primary {
			primaries++
		}
	}
	if primaries != quota {
		t.Fatalf("group %q holds %d primaries, want %d", g, primaries, quota)
	}
}

// samLines is body as SAMStream splits it: each newline-terminated line
// without a trailing carriage return, newline restored. An unterminated
// tail is not a line.
func samLines(body string) string {
	var b strings.Builder
	for {
		line, rest, ok := strings.Cut(body, "\n")
		if !ok {
			return b.String()
		}
		b.WriteString(strings.TrimSuffix(line, "\r"))
		b.WriteByte('\n')
		body = rest
	}
}
