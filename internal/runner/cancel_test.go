package runner

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCancelledGridStartsNoNewCells cancels a grid while both workers are
// parked inside a cell. The pool has no context of its own, so the cell
// checks the caller's context on entry, as the package documents: the two
// in-flight cells finish, the next cells return context.Canceled before doing
// any work, and that error stops the run.
func TestCancelledGridStartsNoNewCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := New(WithWorkers(2))

	const n = 64
	var started atomic.Int32
	running := make(chan struct{}, n)
	release := make(chan struct{})

	errRun := make(chan error, 1)
	go func() {
		errRun <- p.Run(n, func(i int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			started.Add(1)
			running <- struct{}{}
			<-release
			return nil
		})
	}()

	// Wait until both workers are parked inside a cell.
	for range 2 {
		select {
		case <-running:
		case <-time.After(5 * time.Second):
			t.Fatal("workers never started their first cells")
		}
	}
	cancel()
	close(release)

	select {
	case err := <-errRun:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if got := started.Load(); got != 2 {
		t.Fatalf("%d cells started, want exactly the 2 that were in flight at cancellation", got)
	}
}

// TestQueueBoundsConcurrency parks more tasks than the queue has slots and
// checks admission never exceeds the budget.
func TestQueueBoundsConcurrency(t *testing.T) {
	q := NewQueue(3)
	var inFlight, peak atomic.Int32
	var wg sync.WaitGroup
	for range 24 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = q.Do(context.Background(), func(context.Context) error {
				cur := inFlight.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				inFlight.Add(-1)
				return nil
			})
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak in-flight %d exceeds the 3-slot budget", p)
	}
}

// TestQueueAbandonsWaitingTask checks that a task whose context dies while it
// is still queued is never started.
func TestQueueAbandonsWaitingTask(t *testing.T) {
	q := NewQueue(1)
	block := make(chan struct{})
	occupied := make(chan struct{})
	go func() {
		_ = q.Do(context.Background(), func(context.Context) error {
			close(occupied)
			<-block
			return nil
		})
	}()
	<-occupied

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := q.Do(ctx, func(context.Context) error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do returned %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("cancelled task ran anyway")
	}
	close(block)
}

// TestQueueRecoversPanics checks a panicking task surfaces as *PanicError and
// releases its slot.
func TestQueueRecoversPanics(t *testing.T) {
	q := NewQueue(1)
	err := q.Do(context.Background(), func(context.Context) error { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Do returned %v, want *PanicError", err)
	}
	// The slot must be free again.
	if err := q.Do(context.Background(), func(context.Context) error { return nil }); err != nil {
		t.Fatalf("queue unusable after panic: %v", err)
	}
}
