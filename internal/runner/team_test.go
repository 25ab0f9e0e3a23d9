package runner

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// setProcs sets GOMAXPROCS for the rest of the test.
func setProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestTeamRunsEveryCellOnce: every index runs exactly once, each
// participant sees its cells in ascending order, and at most
// min(n, GOMAXPROCS)−1 helpers join; a one-cell batch and GOMAXPROCS 1 run
// on the caller alone.
func TestTeamRunsEveryCellOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		for _, n := range []int{0, 1, 2, 7, 64} {
			t.Run(fmt.Sprintf("procs=%d/n=%d", procs, n), func(t *testing.T) {
				setProcs(t, procs)
				runs := make([]atomic.Int32, n)
				// last[w] is the last index worker w ran; a worker only
				// ever touches its own slot.
				last := make([]int, n+1)
				team := NewTeam(func(worker, i int) {
					runs[i].Add(1)
					if i <= last[worker] {
						t.Errorf("worker %d ran cell %d after cell %d", worker, i, last[worker])
					}
					last[worker] = i
					if procs == 1 || n == 1 {
						if worker != 0 {
							t.Errorf("cell %d ran on worker %d, want the caller", i, worker)
						}
					}
				})
				for round := 0; round < 20; round++ {
					for w := range last {
						last[w] = -1
					}
					helped := team.Run(n)
					if limit := max(min(n, procs)-1, 0); helped > limit {
						t.Fatalf("%d helpers joined, want at most %d", helped, limit)
					}
				}
				for i := range runs {
					if got := runs[i].Load(); got != 20 {
						t.Fatalf("cell %d ran %d times over 20 batches", i, got)
					}
				}
			})
		}
	}
}

// TestTeamHelpersJoin: at GOMAXPROCS 2 a parked helper takes part in a
// batch, and the cells it claims run with worker 1.
func TestTeamHelpersJoin(t *testing.T) {
	setProcs(t, 2)
	var onHelper atomic.Int32
	team := NewTeam(func(worker, i int) {
		if worker == 1 {
			onHelper.Add(1)
		}
		time.Sleep(100 * time.Microsecond)
	})
	helped := 0
	for try := 0; try < 1000 && onHelper.Load() == 0; try++ {
		helped += team.Run(4)
	}
	if helped == 0 || onHelper.Load() == 0 {
		t.Fatalf("no helper joined in 1000 batches (joined %d, cells on a helper %d)", helped, onHelper.Load())
	}
}

// TestTeamHelperPanicReachesCaller: a panic in a cell a helper runs is
// re-raised on the caller as a *PanicError once the batch has joined, and
// the Team stays usable.
func TestTeamHelperPanicReachesCaller(t *testing.T) {
	setProcs(t, 2)
	team := NewTeam(func(worker, i int) {
		if worker != 0 {
			panic("helper cell")
		}
		time.Sleep(100 * time.Microsecond)
	})
	run := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				pe, ok := r.(*PanicError)
				if !ok {
					err = fmt.Errorf("panic value %T, want *PanicError", r)
					return
				}
				err = pe
			}
		}()
		team.Run(4)
		return nil
	}
	var err error
	for try := 0; try < 1000 && err == nil; try++ {
		err = run()
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("no helper panic reached the caller in 1000 batches: %v", err)
	}
	if pe.Value != "helper cell" || pe.Index < 1 || pe.Index >= 4 {
		t.Fatalf("PanicError{Index: %d, Value: %v}, want a helper-claimed index and the cell's value", pe.Index, pe.Value)
	}
	// The caller's own cells still run and the next batch joins cleanly.
	calls := 0
	NewTeam(func(worker, i int) { calls++ }).Run(1)
	if calls != 1 {
		t.Fatalf("one-cell batch ran %d cells", calls)
	}
}

// TestTeamSkipsBusyHelpers: a batch never waits for a helper that is busy
// with another Team's batch. One batch holds every helper it gets inside a
// blocked cell; a second batch must still finish, on its caller alone or
// with helpers that were idle.
func TestTeamSkipsBusyHelpers(t *testing.T) {
	setProcs(t, 2)
	release := make(chan struct{})
	blocked := make(chan struct{}, 8)
	holder := NewTeam(func(worker, i int) {
		if worker == 0 {
			// Leave cells for a helper that is still waking up.
			time.Sleep(200 * time.Microsecond)
			return
		}
		blocked <- struct{}{}
		<-release
	})
	done := make(chan int)
	for try := 0; ; try++ {
		if try == 1000 {
			t.Fatal("no helper joined the holding batch in 1000 tries")
		}
		go func() { done <- holder.Run(8) }()
		select {
		case <-blocked:
		case <-done:
			continue // no helper was parked; try again
		}
		break
	}
	var ran atomic.Int32
	finished := make(chan struct{})
	go func() {
		NewTeam(func(worker, i int) { ran.Add(1) }).Run(8)
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("a batch waited for a busy helper")
	}
	close(release)
	<-done
	if ran.Load() != 8 {
		t.Fatalf("second batch ran %d of 8 cells", ran.Load())
	}
}
