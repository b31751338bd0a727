package pool

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCoversEveryIndex(t *testing.T) {
	for _, par := range []int{0, 1, 3, 100} {
		var hits [17]atomic.Int32
		err := Run(context.Background(), len(hits), par, func(ctx context.Context, idx int) error {
			hits[idx].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("par=%d: index %d ran %d times", par, i, got)
			}
		}
	}
}

func TestRunZeroJobs(t *testing.T) {
	if err := Run(context.Background(), 0, 4, func(context.Context, int) error {
		t.Error("fn called with no jobs")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFirstErrorCancelsRest(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int32
	err := Run(context.Background(), 1000, 1, func(ctx context.Context, idx int) error {
		started.Add(1)
		if idx == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Sequential pool: indices 0-3 run, the failure cancels, the rest drain.
	if got := started.Load(); got != 4 {
		t.Errorf("%d jobs started, want 4", got)
	}
}

func TestRunCallerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	err := Run(ctx, 5, 2, func(context.Context, int) error { called = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if called {
		t.Error("fn ran under a pre-cancelled context")
	}
}

func TestRunBoundsParallelism(t *testing.T) {
	var cur, peak atomic.Int32
	err := Run(context.Background(), 64, 3, func(ctx context.Context, idx int) error {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() > 3 {
		t.Errorf("peak concurrency %d exceeds par=3", peak.Load())
	}
}

func TestSplit(t *testing.T) {
	cases := []struct {
		n, k int
		want [][2]int
	}{
		{0, 4, nil},
		{1, 4, [][2]int{{0, 1}}},
		{5, 2, [][2]int{{0, 3}, {3, 5}}},
		{6, 3, [][2]int{{0, 2}, {2, 4}, {4, 6}}},
		{7, 3, [][2]int{{0, 3}, {3, 5}, {5, 7}}},
		{3, 0, [][2]int{{0, 3}}},
	}
	for _, c := range cases {
		got := Split(c.n, c.k)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Split(%d, %d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
	// Ranges always cover [0, n) exactly, in order, sizes within one.
	for n := 1; n <= 40; n++ {
		for k := 1; k <= 10; k++ {
			rs := Split(n, k)
			prev, minSz, maxSz := 0, n, 0
			for _, r := range rs {
				if r[0] != prev || r[1] <= r[0] {
					t.Fatalf("Split(%d, %d) = %v: bad range %v", n, k, rs, r)
				}
				if sz := r[1] - r[0]; sz < minSz {
					minSz = sz
				} else if sz > maxSz {
					maxSz = sz
				}
				prev = r[1]
			}
			if prev != n || (maxSz > 0 && maxSz-minSz > 1) {
				t.Fatalf("Split(%d, %d) = %v: uneven or incomplete", n, k, rs)
			}
		}
	}
}

// TestRunPanicContained: a panicking job must surface as a typed PanicError
// carrying the job index and a stack, cancel the remaining jobs like any
// other failure, and never escape Run — one poisoned work item cannot take
// the process down.
func TestRunPanicContained(t *testing.T) {
	err := Run(context.Background(), 100, 2, func(ctx context.Context, idx int) error {
		if idx == 0 {
			panic("poisoned item")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run returned %v, want a *PanicError", err)
	}
	if pe.Index != 0 || pe.Value != "poisoned item" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = {Index: %d, Value: %v, stack %d bytes}", pe.Index, pe.Value, len(pe.Stack))
	}
	if want := "pool: job 0 panicked: poisoned item"; err.Error() != want {
		t.Fatalf("error text %q, want %q", err.Error(), want)
	}
}

// TestRunBudgetWidths: every job gets the width it asks for, clamped to
// [1, free workers], and the widths of the jobs running at once never sum
// past the budget.
func TestRunBudgetWidths(t *testing.T) {
	const par = 4
	var (
		mu      sync.Mutex
		running int
		peak    int
	)
	granted := make([]int, 40)
	err := RunBudget(context.Background(), len(granted), par,
		func(idx, free int) int {
			if free < 1 || free > par {
				t.Errorf("job %d offered %d free workers", idx, free)
			}
			return idx%6 - 1 // asks for -1..4: below, within and above the budget
		},
		func(ctx context.Context, idx, width int) error {
			mu.Lock()
			running += width
			peak = max(peak, running)
			mu.Unlock()
			granted[idx] = width
			time.Sleep(time.Millisecond)
			mu.Lock()
			running -= width
			mu.Unlock()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for idx, w := range granted {
		if w < 1 || w > min(max(idx%6-1, 1), par) {
			t.Errorf("job %d granted width %d for a request of %d", idx, w, idx%6-1)
		}
	}
	if peak > par {
		t.Errorf("running widths peaked at %d, budget %d", peak, par)
	}
}
