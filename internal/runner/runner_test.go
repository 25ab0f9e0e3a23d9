package runner

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDefaults(t *testing.T) {
	p := New()
	if p.workers != DefaultWorkers() {
		t.Errorf("workers = %d, want %d", p.workers, DefaultWorkers())
	}
	if DefaultWorkers() != runtime.GOMAXPROCS(0) {
		t.Errorf("DefaultWorkers() = %d, want GOMAXPROCS = %d", DefaultWorkers(), runtime.GOMAXPROCS(0))
	}
	for _, n := range []int{0, -3} {
		if got := New(WithWorkers(n)).workers; got != DefaultWorkers() {
			t.Errorf("WithWorkers(%d) gave %d workers, want default %d", n, got, DefaultWorkers())
		}
	}
	if got := New(WithWorkers(7)).workers; got != 7 {
		t.Errorf("WithWorkers(7) gave %d workers", got)
	}
	if got := New(nil).workers; got != DefaultWorkers() {
		t.Errorf("nil option mishandled: %d workers", got)
	}
}

func TestMapPreservesInputOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			items := make([]int, 100)
			for i := range items {
				items[i] = i * 3
			}
			p := New(WithWorkers(workers))
			got, err := Map(p, items, func(i, item int) (string, error) {
				return fmt.Sprintf("%d:%d", i, item), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(items) {
				t.Fatalf("got %d results", len(got))
			}
			for i, s := range got {
				if want := fmt.Sprintf("%d:%d", i, i*3); s != want {
					t.Fatalf("result %d = %q, want %q", i, s, want)
				}
			}
		})
	}
}

func TestMapIsDeterministicAcrossWorkerCounts(t *testing.T) {
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	square := func(_, item int) (int, error) { return item * item, nil }
	ref, err := Map(New(WithWorkers(1)), items, square)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, DefaultWorkers()} {
		got, err := Map(New(WithWorkers(workers)), items, square)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: result %d = %d, want %d", workers, i, got[i], ref[i])
			}
		}
	}
}

func TestRunRespectsWorkerLimit(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	p := New(WithWorkers(workers))
	err := p.Run(50, func(int) error {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Errorf("observed %d concurrent cells, limit is %d", got, workers)
	}
}

func TestLowestIndexErrorWins(t *testing.T) {
	// Cell 3 fails fast, cell 1 fails slowly: the slower, lower-numbered
	// error must still win so the returned error is schedule-independent.
	errs := map[int]error{1: errors.New("slow low"), 3: errors.New("fast high")}
	for _, workers := range []int{4, 8} {
		var started sync.WaitGroup
		started.Add(4)
		p := New(WithWorkers(workers))
		err := p.Run(4, func(i int) error {
			started.Done()
			started.Wait() // hold until every cell is in flight
			if i == 1 {
				time.Sleep(20 * time.Millisecond)
			}
			return errs[i]
		})
		if !errors.Is(err, errs[1]) {
			t.Errorf("workers=%d: got error %v, want %v", workers, err, errs[1])
		}
	}
}

func TestErrorCancelsRemainingCells(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	p := New(WithWorkers(2))
	err := p.Run(10_000, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if n := ran.Load(); n > 100 {
		t.Errorf("%d cells ran after the first error; cancellation is not kicking in", n)
	}
}

func TestMapReturnsPartialResultsOnError(t *testing.T) {
	boom := errors.New("boom")
	items := []int{10, 20, 30}
	got, err := Map(New(WithWorkers(1)), items, func(i, item int) (int, error) {
		if i == 2 {
			return 0, boom
		}
		return item + 1, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if got[0] != 11 || got[1] != 21 || got[2] != 0 {
		t.Errorf("partial results = %v, want [11 21 0]", got)
	}
}

func TestPanicIsRecoveredAsError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(WithWorkers(workers))
		_, err := Map(p, []int{0, 1, 2, 3}, func(i, item int) (int, error) {
			if i == 2 {
				panic("cell exploded")
			}
			return item, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %v (%T), want *PanicError", workers, err, err)
		}
		if pe.Index != 2 {
			t.Errorf("panic index = %d, want 2", pe.Index)
		}
		if pe.Value != "cell exploded" {
			t.Errorf("panic value = %v", pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Error("panic stack not captured")
		}
		if msg := pe.Error(); !strings.Contains(msg, "cell 2") || !strings.Contains(msg, "cell exploded") {
			t.Errorf("unhelpful panic message: %s", msg)
		}
	}
}

func TestPanicBeatsHigherIndexError(t *testing.T) {
	p := New(WithWorkers(1))
	err := p.Run(4, func(i int) error {
		if i == 0 {
			panic("early")
		}
		return errors.New("late")
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 0 {
		t.Fatalf("got %v, want *PanicError for cell 0", err)
	}
}

func TestEmptyAndSmallInputs(t *testing.T) {
	p := New(WithWorkers(8))
	if err := p.Run(0, nil); err != nil {
		t.Errorf("Run(0) = %v", err)
	}
	got, err := Map(p, []int(nil), func(i, item int) (int, error) { return item, nil })
	if err != nil || len(got) != 0 {
		t.Errorf("Map(nil) = %v, %v", got, err)
	}
	// More workers than cells must not deadlock or duplicate work.
	var ran atomic.Int64
	if err := p.Run(2, func(int) error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 2 {
		t.Errorf("ran %d cells, want 2", ran.Load())
	}
}

func TestNilPoolUsesDefaults(t *testing.T) {
	got, err := Map[int, int](nil, []int{1, 2, 3}, func(_, item int) (int, error) { return item * 2, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 || got[1] != 4 || got[2] != 6 {
		t.Errorf("got %v", got)
	}
}

func TestPoolIsReusableAndConcurrencySafe(t *testing.T) {
	p := New(WithWorkers(4))
	var wg sync.WaitGroup
	for round := 0; round < 8; round++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			items := []int{1, 2, 3, 4, 5}
			got, err := Map(p, items, func(_, item int) (int, error) { return item + 100, nil })
			if err != nil {
				t.Error(err)
				return
			}
			for i, v := range got {
				if v != items[i]+100 {
					t.Errorf("result %d = %d", i, v)
				}
			}
		}()
	}
	wg.Wait()
}

func TestGrid(t *testing.T) {
	cells := Grid([]int{4, 5}, []string{"a", "b", "c"})
	if len(cells) != 6 {
		t.Fatalf("got %d cells", len(cells))
	}
	// Row-major: first axis varies slowest, exactly like the nested loops the
	// grid replaces.
	want := []Cell2[int, string]{
		{4, "a"}, {4, "b"}, {4, "c"},
		{5, "a"}, {5, "b"}, {5, "c"},
	}
	for i := range want {
		if cells[i] != want[i] {
			t.Fatalf("cell %d = %v, want %v", i, cells[i], want[i])
		}
	}
	if got := Grid([]int{}, []string{"a"}); len(got) != 0 {
		t.Errorf("empty axis gave %d cells", len(got))
	}
}
