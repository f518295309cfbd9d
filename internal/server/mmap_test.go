package server

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// TestMmapIndexByteIdenticalSAM is the correctness gate for mmap-backed
// index loading at the service level: a server over an mmap'd v2 index must
// produce byte-identical SAM to a server over the same file loaded onto the
// heap.
func TestMmapIndexByteIdenticalSAM(t *testing.T) {
	aln, reads, _, _ := setup(t)
	pi, err := core.BuildPrebuilt(aln.Ref)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	v2Path := filepath.Join(dir, "ref.bwago")
	f, err := os.Create(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pi.WriteIndexV2(f); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	heapPI, err := core.ReadIndex(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	heapAln, err := core.NewAlignerFrom(heapPI, core.ModeOptimized, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	mi, err := core.OpenIndexMmap(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	// Registered before the servers' cleanups: t.Cleanup runs LIFO, so both
	// servers drain their schedulers before the mapping goes away — the
	// lifetime contract bwaserve follows.
	t.Cleanup(func() { mi.Close() })
	mmapAln, err := core.NewAlignerFrom(&mi.Prebuilt, core.ModeOptimized, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	newServer := func(a *core.Aligner, info IndexInfo) *Server {
		s, err := New(a, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		s.SetIndexInfo(info)
		t.Cleanup(func() { s.Close() })
		return s
	}
	heapSrv := newServer(heapAln, IndexInfo{Source: "v2-heap"})
	mmapSrv := newServer(mmapAln, IndexInfo{Source: "v2-mmap", Mmap: true, ResidentBytes: mi.MappedBytes()})

	wantResp := post(heapSrv, "/align", "", fastqBody(reads[:150]))
	if wantResp.Code != http.StatusOK {
		t.Fatalf("heap server: status %d: %s", wantResp.Code, wantResp.Body.String())
	}
	// Two rounds against the mmap server so the second exercises the result
	// cache over mapped regions as well.
	for round := 0; round < 2; round++ {
		got := post(mmapSrv, "/align", "", fastqBody(reads[:150]))
		if got.Code != http.StatusOK {
			t.Fatalf("mmap server round %d: status %d: %s", round, got.Code, got.Body.String())
		}
		if got.Body.String() != wantResp.Body.String() {
			t.Fatalf("round %d: mmap-served SAM differs from heap-served SAM (%d vs %d bytes)",
				round, got.Body.Len(), wantResp.Body.Len())
		}
	}
}
