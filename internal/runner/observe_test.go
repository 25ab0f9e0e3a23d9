package runner

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestCellObserverSeesEveryCell(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var (
			mu      sync.Mutex
			indices []int
		)
		p := New(WithWorkers(workers), WithCellObserver(func(index, worker int, start time.Time, d time.Duration) {
			if worker < 0 || worker >= workers {
				t.Errorf("worker %d out of range [0,%d)", worker, workers)
			}
			if d < 0 || start.IsZero() {
				t.Errorf("bad timing for cell %d: start=%v d=%v", index, start, d)
			}
			mu.Lock()
			indices = append(indices, index)
			mu.Unlock()
		}))
		const n = 16
		if err := p.Run(n, func(i int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		sort.Ints(indices)
		if len(indices) != n {
			t.Fatalf("workers=%d: observer saw %d cells, want %d", workers, len(indices), n)
		}
		for i, idx := range indices {
			if idx != i {
				t.Fatalf("workers=%d: observed indices %v, want 0..%d each once", workers, indices, n-1)
			}
		}
	}
}

func TestQueueDepth(t *testing.T) {
	q := NewQueue(1)
	if q.Depth() != 0 {
		t.Fatalf("idle queue Depth = %d, want 0", q.Depth())
	}

	block := make(chan struct{})
	running := make(chan struct{})
	go q.Do(context.Background(), func(ctx context.Context) error {
		close(running)
		<-block
		return nil
	})
	<-running

	// A second task now has to wait for the single slot.
	waiting := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		q.Do(context.Background(), func(ctx context.Context) error { return nil })
	}()
	go func() {
		for q.Depth() == 0 {
			time.Sleep(time.Millisecond)
		}
		close(waiting)
	}()
	select {
	case <-waiting:
	case <-time.After(5 * time.Second):
		t.Fatal("Depth never reported the waiting task")
	}
	close(block)
	<-done
	if q.Depth() != 0 {
		t.Fatalf("drained queue Depth = %d, want 0", q.Depth())
	}
}

func TestQueueDepthDropsOnCancelledWait(t *testing.T) {
	q := NewQueue(1)
	block := make(chan struct{})
	running := make(chan struct{})
	go q.Do(context.Background(), func(ctx context.Context) error {
		close(running)
		<-block
		return nil
	})
	<-running

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- q.Do(ctx, func(ctx context.Context) error { return nil }) }()
	for q.Depth() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	if q.Depth() != 0 {
		t.Fatalf("Depth = %d after the waiter gave up, want 0", q.Depth())
	}
	close(block)
}
