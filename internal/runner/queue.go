package runner

import (
	"context"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Queue is the long-lived, context-aware admission front of a worker budget:
// a fixed number of execution slots shared by many independent, concurrently
// submitted tasks. It is what a daemon puts between its request handlers and
// the CPU — every accepted request Does its work through the queue, so the
// total simulation concurrency is bounded no matter how many clients are
// connected, and a client that gives up while still queued never occupies a
// slot at all.
//
// Unlike Pool.Run, which executes one finite batch and returns, a Queue has
// no batch boundary: tasks arrive forever and each one carries its own
// context. Do runs the task on the caller's goroutine (so the caller's stack,
// request tracing and response writer are all naturally available) after
// acquiring a slot; slots are released when the task returns.
type Queue struct {
	slots chan struct{}
	// waiting counts callers blocked in Do between admission and slot
	// acquisition — the queue depth a dashboard wants next to InFlight.
	waiting atomic.Int64
}

// NewQueue builds a queue with the given number of execution slots. Values
// below 1 select DefaultWorkers().
func NewQueue(workers int) *Queue {
	if workers < 1 {
		workers = DefaultWorkers()
	}
	return &Queue{slots: make(chan struct{}, workers)}
}

// Workers reports the queue's slot count.
func (q *Queue) Workers() int { return cap(q.slots) }

// InFlight reports how many tasks currently hold a slot. It is a point-in-time
// snapshot for metrics, not a synchronisation primitive.
func (q *Queue) InFlight() int { return len(q.slots) }

// Depth reports how many tasks are waiting for a slot (admitted to Do but
// not yet running). Like InFlight it is a point-in-time snapshot.
func (q *Queue) Depth() int { return int(q.waiting.Load()) }

// Do runs fn once a slot is free, passing the caller's context through. If
// the context is cancelled while the task is still waiting for a slot, Do
// returns the context's error without ever starting fn — a departed client
// costs nothing. A cancellation after fn starts is fn's own business: the
// context is handed to it precisely so it can stop early (the simulator
// does, via core.Strategy.Run.Cancel).
//
// Panics inside fn are recovered and returned as a *PanicError (index -1, as
// queue tasks have no batch position), so one bad request cannot take down
// the daemon's worker budget.
func (q *Queue) Do(ctx context.Context, fn func(ctx context.Context) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// Check for cancellation first so a dead request never wins a free slot.
	if err := ctx.Err(); err != nil {
		return err
	}
	q.waiting.Add(1)
	start := time.Now()
	select {
	case q.slots <- struct{}{}:
	case <-ctx.Done():
		q.waiting.Add(-1)
		return ctx.Err()
	}
	q.waiting.Add(-1)
	queueWaitSeconds.Observe(time.Since(start).Seconds())
	queueTasksTotal.Inc()
	defer func() { <-q.slots }()
	return runTask(ctx, fn)
}

// runTask invokes fn with panic recovery.
func runTask(ctx context.Context, fn func(ctx context.Context) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: -1, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx)
}
