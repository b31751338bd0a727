// Package pool provides the indexed worker pool shared by the suite
// runner (internal/suite) and the design-space explorer (internal/explore):
// N independent jobs fan out over a bounded set of workers, the first
// failure cancels the rest, and job identity is an index so callers write
// results into pre-sized slices — deterministic output order at any
// parallelism level.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// PanicError is a job that panicked: Run recovers it inside the worker,
// cancels the remaining jobs and returns this typed error instead of
// letting one bad job take down the whole process — a daemon serving many
// sweeps must survive a single poisoned grid point.
type PanicError struct {
	Index int    // the job index that panicked
	Value any    // the recovered panic value
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: job %d panicked: %v", e.Index, e.Value)
}

// call runs one job invocation with panic containment.
func call(idx int, fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: idx, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Split partitions n items into at most k contiguous, non-empty ranges
// whose sizes differ by at most one, returned as [start, end) pairs in
// order. It is the deterministic sharding callers use to turn one large
// fan-out (a workload's grid points, a sink group) into Run-sized jobs:
// the boundaries depend only on (n, k), never on scheduling. k <= 0 is
// treated as 1; fewer than k ranges come back when n < k.
func Split(n, k int) [][2]int {
	if n <= 0 {
		return nil
	}
	if k <= 0 {
		k = 1
	}
	if k > n {
		k = n
	}
	out := make([][2]int, 0, k)
	for i, start := 0, 0; i < k; i++ {
		size := n / k
		if i < n%k {
			size++
		}
		out = append(out, [2]int{start, start + size})
		start += size
	}
	return out
}

// Run invokes fn(ctx, idx) for every idx in [0, n), at most par
// concurrently (par <= 0 selects GOMAXPROCS; par is clamped to n). The
// context passed to fn is cancelled as soon as any invocation returns an
// error or the caller's context ends; indices not yet started are then
// skipped. Run blocks until all started invocations return, then reports
// the first error encountered, or ctx.Err() when the caller's context
// ended first. A panicking invocation is recovered and surfaces as a
// *PanicError for that index; it cancels the rest like any other failure.
func Run(ctx context.Context, n, par int, fn func(ctx context.Context, idx int) error) error {
	return RunBudget(ctx, n, par, nil, func(ctx context.Context, idx, _ int) error {
		return fn(ctx, idx)
	})
}

// RunBudget is Run for jobs that can use more than one worker each. The
// par workers form a budget: jobs start in index order, each as soon as at
// least one worker is free, and width(idx, free) — called serially, in
// index order, with the number of free workers at that moment — picks how
// many workers job idx takes, clamped to [1, free] (a nil width takes one).
// fn receives the granted width, and the workers return to the budget when
// it returns. Cancellation, first-error and panic semantics are Run's.
func RunBudget(ctx context.Context, n, par int, width func(idx, free int) int,
	fn func(ctx context.Context, idx, width int) error) error {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	// At most par jobs run at once (each holds at least one worker), so
	// returning a width never blocks.
	returned := make(chan int, par)
	free := par
	var wg sync.WaitGroup
	for idx := 0; idx < n; idx++ {
		if free == 0 {
			free += <-returned
		}
	collect:
		for {
			select {
			case k := <-returned:
				free += k
			default:
				break collect
			}
		}
		if runCtx.Err() != nil {
			break // a job failed or the caller cancelled: start nothing new
		}
		k := 1
		if width != nil {
			k = min(max(width(idx, free), 1), free)
		}
		free -= k
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := call(idx, func() error { return fn(runCtx, idx, k) }); err != nil {
				fail(err)
			}
			returned <- k
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
