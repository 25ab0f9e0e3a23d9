package runner

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Team runs one batch of cells at a time on the calling goroutine plus
// whichever of the process's parked helper goroutines are idle when the
// batch starts. It serves work too fine for a Pool, whose every Run starts
// its own goroutines: a Team batch costs one channel hand-off per helper and
// one join, and allocates nothing.
//
// Participants claim cell indices in ascending order from one atomic
// counter, so each participant sees its own cells in ascending order, but
// which participant runs which cell depends on scheduling. Cells must
// therefore not depend on one another's results, and a cell that reuses
// state across cells (a cache, a donor) must key it by the worker argument:
// 0 for the caller, 1.. for the helpers of the current batch.
//
// The helpers are shared by every Team in the process, started on first
// use and never stopped; there are at most GOMAXPROCS−1 of them. The
// hand-off never blocks: a helper that is busy, with another Team's batch
// for instance, is skipped, and the caller runs what nobody else claims. A
// Team runs one batch at a time; it is not safe for concurrent Run calls.
type Team struct {
	cell   func(worker, i int)
	n      int
	next   atomic.Int64
	active atomic.Int32 // helpers of the running batch that have not finished
	// panicked holds the first panic of a helper's cell in this batch.
	panicked atomic.Pointer[PanicError]
}

// NewTeam returns a Team that runs cell for every index of each batch.
func NewTeam(cell func(worker, i int)) *Team { return &Team{cell: cell} }

// helperTask hands one batch to a parked helper, naming its worker slot.
type helperTask struct {
	team   *Team
	worker int
}

var (
	// helperTasks is unbuffered: a send succeeds only while a helper is
	// parked on the receive, which is what makes a busy helper skipped.
	helperTasks    = make(chan helperTask)
	helpersMu      sync.Mutex
	helpersStarted atomic.Int32
)

// Run calls cell(worker, i) once for every i in [0, n) and returns when
// every call has returned, with the number of helpers that took part. A
// batch of one cell, or a process at GOMAXPROCS 1, runs on the caller
// alone, in index order. A panic in a cell reaches the caller: its own
// directly, a helper's as a *PanicError once the batch has joined.
func (t *Team) Run(n int) (helped int) {
	extra := 0
	if n > 1 {
		extra = min(n, runtime.GOMAXPROCS(0)) - 1
	}
	if extra <= 0 {
		for i := 0; i < n; i++ {
			t.cell(0, i)
		}
		return 0
	}
	startHelpers(extra)
	t.n = n
	t.next.Store(0)
	t.panicked.Store(nil)
	for helped < extra {
		t.active.Add(1)
		select {
		case helperTasks <- helperTask{team: t, worker: helped + 1}:
			helped++
			continue
		default:
		}
		// No helper is parked, so none would take a second offer either.
		t.active.Add(-1)
		break
	}
	defer t.join()
	var i int
	t.claim(0, &i)
	return helped
}

// claim runs unclaimed cells as worker until none is left, keeping the
// index of the running cell in *i.
func (t *Team) claim(worker int, i *int) {
	for {
		*i = int(t.next.Add(1)) - 1
		if *i >= t.n {
			return
		}
		t.cell(worker, *i)
	}
}

// join waits for the batch's helpers and re-raises the first helper panic.
// It yields the processor instead of parking: the wait is at most one cell
// long, a parked caller would need a wake-up to resume, and parking draws
// on the runtime's per-CPU cache of wait records (sudogs), which refills
// from the heap when the caller parks on one CPU and resumes on another.
func (t *Team) join() {
	for t.active.Load() != 0 {
		runtime.Gosched()
	}
	if p := t.panicked.Load(); p != nil {
		panic(p)
	}
}

// help is a helper's share of one batch.
func (t *Team) help(worker int) {
	i := -1
	defer func() {
		if r := recover(); r != nil {
			t.panicked.CompareAndSwap(nil, &PanicError{Index: i, Value: r, Stack: debug.Stack()})
		}
		t.active.Add(-1)
	}()
	t.claim(worker, &i)
}

// startHelpers makes sure at least want helpers exist. A helper started
// here may not be parked yet when the caller's first offer goes out; that
// batch then simply runs with fewer helpers.
func startHelpers(want int) {
	if int(helpersStarted.Load()) >= want {
		return
	}
	helpersMu.Lock()
	defer helpersMu.Unlock()
	for int(helpersStarted.Load()) < want {
		go helper()
		helpersStarted.Add(1)
	}
}

// helper is one parked helper goroutine: it serves batches for the life
// of the process.
func helper() {
	for task := range helperTasks {
		task.team.help(task.worker)
	}
}
