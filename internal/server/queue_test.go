package server

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestAdmissionBudget(t *testing.T) {
	q := NewAdmission(10)
	if err := q.TryAcquire(6); err != nil {
		t.Fatal(err)
	}
	if err := q.TryAcquire(4); err != nil {
		t.Fatal(err)
	}
	if err := q.TryAcquire(1); err != errQueueFull {
		t.Fatalf("over budget: got %v", err)
	}
	q.Release(4)
	if err := q.TryAcquire(4); err != nil {
		t.Fatalf("after release: %v", err)
	}
	if got := q.InFlight(); got != 10 {
		t.Fatalf("inflight = %d", got)
	}
}

func TestAdmissionDraining(t *testing.T) {
	q := NewAdmission(10)
	if err := q.TryAcquire(3); err != nil {
		t.Fatal(err)
	}
	q.SetDraining()
	if err := q.TryAcquire(1); err != errDraining {
		t.Fatalf("draining: got %v", err)
	}
	ctx := context.Background()
	// WaitIdle times out while work is in flight...
	short, cancelShort := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancelShort()
	if q.WaitIdle(short) {
		t.Fatal("WaitIdle succeeded with reads in flight")
	}
	// ...aborts promptly on context cancellation...
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	start := time.Now()
	if q.WaitIdle(cancelled) {
		t.Fatal("WaitIdle succeeded with cancelled context and reads in flight")
	}
	if time.Since(start) > time.Second {
		t.Fatal("WaitIdle ignored context cancellation")
	}
	// ...and returns once it drains.
	done := make(chan bool, 1)
	go func() { done <- q.WaitIdle(ctx) }()
	q.Release(3)
	if !<-done {
		t.Fatal("WaitIdle failed after drain")
	}
}

// TestWaitIdleWakesAllWaiters: several concurrent WaitIdle callers must
// all be notified by the Release that empties the queue (the notification
// channel replaced a 2ms busy-poll; the wakeup is the part that can
// regress).
func TestWaitIdleWakesAllWaiters(t *testing.T) {
	q := NewAdmission(10)
	if err := q.TryAcquire(5); err != nil {
		t.Fatal(err)
	}
	const waiters = 8
	done := make(chan bool, waiters)
	for i := 0; i < waiters; i++ {
		go func() { done <- q.WaitIdle(context.Background()) }()
	}
	q.Release(5)
	for i := 0; i < waiters; i++ {
		select {
		case ok := <-done:
			if !ok {
				t.Fatal("waiter reported timeout after the queue drained")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter never woke")
		}
	}
	// A later acquire/release cycle must mint a fresh notification channel.
	if err := q.TryAcquire(2); err != nil {
		t.Fatal(err)
	}
	go func() { done <- q.WaitIdle(context.Background()) }()
	q.Release(2)
	if !<-done {
		t.Fatal("second-cycle waiter failed")
	}
}

func TestAdmissionConcurrentAccounting(t *testing.T) {
	q := NewAdmission(1 << 30)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if err := q.TryAcquire(3); err != nil {
					t.Error(err)
					return
				}
				q.Release(3)
			}
		}()
	}
	wg.Wait()
	if got := q.InFlight(); got != 0 {
		t.Fatalf("inflight = %d after balanced acquire/release", got)
	}
}
