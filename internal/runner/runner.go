// Package runner provides a deterministic worker pool for fanning
// embarrassingly parallel experiment grids out over multiple goroutines.
//
// The experiment sweeps in internal/experiments evaluate independent
// (mesh size, scenario) cells: every cell constructs its own simulator, so
// no state is shared between cells and the only ordering requirement is that
// the collected results appear in input order. runner.Map guarantees exactly
// that: the result slice is indexed by input position, so a run with 8
// workers is element-for-element identical to a serial run. Fault seeding and
// the mapping PRNGs are deterministic per cell (seeded by cell parameters,
// never by wall clock), which is what makes this fan-out safe.
//
// Semantics:
//
//   - Results preserve input order regardless of completion order.
//   - On failure the error for the lowest-numbered failing cell wins — the
//     lowest index among the cells that actually ran and failed, which keeps
//     error selection as schedule-independent as cancellation allows (a cell
//     skipped because a later-indexed failure cancelled first never gets to
//     report). Cells never started because of cancellation are simply skipped.
//   - A panic inside a cell is recovered and converted into a *PanicError
//     carrying the cell index, the panic value and the stack trace, then
//     treated like any other cell error. A panicking cell therefore cancels
//     the sweep instead of killing the process.
//
// A Pool has no context of its own: a caller that must stop early (a
// campaign under a cancelled request, say) checks its context inside the
// cell and returns the error, which cancels the run like any other failure.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// PanicError is the error a cell produces when its function panics. It keeps
// the recovered value and the goroutine stack so the failure is debuggable
// even though the panic happened off the caller's goroutine.
type PanicError struct {
	// Index is the input position of the cell that panicked.
	Index int
	// Value is the recovered panic value.
	Value interface{}
	// Stack is the stack trace captured at recovery time.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: cell %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// Pool executes batches of independent cells over a fixed number of worker
// goroutines. The zero value is not useful; construct pools with New. A Pool
// carries no per-run state and may be reused for any number of Run/Map calls,
// including concurrently.
type Pool struct {
	workers int
	// obs, when set, receives one callback per executed cell (see
	// WithCellObserver). Independent of obs, every cell's wall-clock
	// duration feeds the process-global runner_pool_cell_seconds histogram.
	obs CellObserver
}

// CellObserver receives one callback per executed cell: the cell's input
// index, the worker that ran it (0 on the serial path), and its wall-clock
// start and duration. Callbacks may arrive concurrently from different
// workers; observers must be safe for concurrent use. Timing is
// observational only — it never influences cell order or results (which are
// deterministic by input index regardless of schedule).
type CellObserver func(index, worker int, start time.Time, d time.Duration)

// Option configures a Pool.
type Option func(*Pool)

// WithWorkers sets the number of worker goroutines. Values below 1 select
// DefaultWorkers().
func WithWorkers(n int) Option {
	return func(p *Pool) {
		if n >= 1 {
			p.workers = n
		}
	}
}

// WithCellObserver attaches a per-cell timing callback to the pool — the
// hook the flight recorder (trace.Spans.CellObserver) uses to lay a sweep's
// cells out per worker in a Chrome trace.
func WithCellObserver(obs CellObserver) Option {
	return func(p *Pool) { p.obs = obs }
}

// DefaultWorkers is the worker count used when none is configured: the
// scheduler's GOMAXPROCS, i.e. one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// New builds a pool. With no options it uses DefaultWorkers() workers.
func New(opts ...Option) *Pool {
	p := &Pool{workers: DefaultWorkers()}
	for _, o := range opts {
		if o != nil {
			o(p)
		}
	}
	return p
}

// Run executes cell(i) for every i in [0, n), fanning the indices out over
// the pool's workers. It blocks until every started cell has finished.
//
// The first failure — "first" meaning the lowest cell index among the cells
// that actually ran and failed, so the result is independent of goroutine
// scheduling — cancels the run: no new cells are started, in-flight cells run
// to completion, and that error is returned. Panics are converted to
// *PanicError and handled the same way.
func (p *Pool) Run(n int, cell func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Serial fast path: no goroutines, no cancellation latency. The
		// semantics are identical because lowest-index-error-wins degenerates
		// to first-error-wins when cells run in index order.
		for i := 0; i < n; i++ {
			if err := p.execCell(i, 0, cell); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		stopped  atomic.Bool
		mu       sync.Mutex
		firstIdx = n // lowest failing index seen so far; n means "none"
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		stopped.Store(true)
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || stopped.Load() {
					return
				}
				if err := p.execCell(i, worker, cell); err != nil {
					fail(i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

// execCell runs one cell with wall-clock timing: the duration always feeds
// the process-global cell histogram (worker utilization = sum over count on
// a scrape), and the pool's observer, when attached, gets the full
// (index, worker, start, duration) tuple.
func (p *Pool) execCell(i, worker int, cell func(i int) error) error {
	start := time.Now()
	err := runCell(i, cell)
	d := time.Since(start)
	poolCellSeconds.Observe(d.Seconds())
	if p.obs != nil {
		p.obs(i, worker, start, d)
	}
	return err
}

// runCell invokes cell(i) with panic recovery.
func runCell(i int, cell func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return cell(i)
}

// Map evaluates fn over every item and collects the results in input order.
// Each fn(i, items[i]) runs as one pool cell; see Pool.Run for the error,
// panic and cancellation semantics. On error the returned slice holds the
// results of the cells that completed successfully (zero values elsewhere) so
// callers that want partial progress can inspect it; most should discard it.
//
// A nil pool runs with New()'s defaults, so package-level helpers can accept
// an optional pool without special-casing.
func Map[T, R any](p *Pool, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	if p == nil {
		p = New()
	}
	results := make([]R, len(items))
	err := p.Run(len(items), func(i int) error {
		r, err := fn(i, items[i])
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return results, err
	}
	return results, nil
}

// Grid returns the row-major cross product of two parameter slices: every
// (a, b) pair with a varying slowest. It is the canonical way to flatten a
// two-dimensional sweep (mesh sizes × controller counts, mesh sizes × Q
// values, ...) into the one-dimensional cell list Map consumes while keeping
// the exact iteration order of the nested loops it replaces.
func Grid[A, B any](as []A, bs []B) []Cell2[A, B] {
	cells := make([]Cell2[A, B], 0, len(as)*len(bs))
	for _, a := range as {
		for _, b := range bs {
			cells = append(cells, Cell2[A, B]{A: a, B: b})
		}
	}
	return cells
}

// Cell2 is one point of a two-dimensional parameter grid.
type Cell2[A, B any] struct {
	A A
	B B
}
