package pipeline

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func TestEachCtxRunsAllWithoutCancel(t *testing.T) {
	a, _, _ := pairedSetup(t)
	s := NewScheduler(a, 2)
	defer s.Close()
	var ran atomic.Int64
	if err := s.EachCtx(context.Background(), 50, func(ws *core.Workspace, i int) {
		ran.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 50 {
		t.Fatalf("ran %d of 50 tasks", ran.Load())
	}
}

func TestEachCtxDropsUnstartedTasksOnCancel(t *testing.T) {
	a, _, _ := pairedSetup(t)
	s := NewScheduler(a, 1) // one worker: tasks queue behind the blocker
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(1)
	// Occupy the single worker so every EachCtx task sits in the queue.
	s.Go(func(ws *core.Workspace) {
		started.Done()
		<-release
	})
	started.Wait()

	var ran atomic.Int64
	errCh := make(chan error, 1)
	go func() {
		errCh <- s.EachCtx(ctx, 64, func(ws *core.Workspace, i int) { ran.Add(1) })
	}()
	// Give the submitter a moment to queue what fits, then cancel while
	// the worker is still blocked: nothing queued has started.
	time.Sleep(20 * time.Millisecond)
	cancel()
	close(release)
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("EachCtx err = %v", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d tasks ran despite cancellation before any started", n)
	}
}

func TestRunPairedStreamMatchesBuffered(t *testing.T) {
	a, r1, r2 := pairedSetup(t)
	want := RunPaired(a, r1, r2, Config{Threads: 3, BatchSize: 64})

	s := NewScheduler(a, 3)
	defer s.Close()
	perPair := make([][]byte, len(r1))
	var calls atomic.Int64
	res, err := RunPairedStreamOn(context.Background(), s, r1, r2, Config{BatchSize: 64},
		func(i int, rec []byte) {
			calls.Add(1)
			perPair[i] = rec
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.SAM != nil {
		t.Fatal("streamed Result carries a SAM buffer")
	}
	if int(calls.Load()) != len(r1) {
		t.Fatalf("emit called %d times for %d pairs", calls.Load(), len(r1))
	}
	var got bytes.Buffer
	for _, rec := range perPair {
		got.Write(rec)
	}
	if !bytes.Equal(got.Bytes(), want.SAM) {
		t.Fatal("streamed per-pair records differ from buffered RunPaired SAM")
	}
}

func TestRunPairedStreamCancelled(t *testing.T) {
	a, r1, r2 := pairedSetup(t)
	s := NewScheduler(a, 2)
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before submission: no batch may run
	var calls atomic.Int64
	res, err := RunPairedStreamOn(ctx, s, r1, r2, Config{BatchSize: 16},
		func(int, []byte) { calls.Add(1) })
	if err != context.Canceled || res != nil {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", res, err)
	}
	if calls.Load() != 0 {
		t.Fatalf("emit called %d times under a pre-cancelled context", calls.Load())
	}
}
