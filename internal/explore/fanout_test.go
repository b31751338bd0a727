package explore

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"waymemo/internal/suite"
)

// skewedSpace sweeps two synthetic workloads whose traces differ about 1:8
// in length over 80 geometries each — more than maxShardPoints, so every
// workload is cut into two passes — with a baseline and one MAB size per
// point.
func skewedSpace() Space {
	return Space{
		Domain:        suite.Data,
		Sets:          []int{64, 128, 256, 512, 1024},
		Ways:          []int{1, 2, 4, 8},
		LineBytes:     []int{8, 16, 32, 64},
		TagEntries:    []int{2},
		SetEntries:    []int{8},
		WorkloadSpecs: []string{"synth:hotloop,fp=1KiB,n=1024", "synth:hotloop,fp=1KiB,n=8192"},
	}
}

// settledGoroutines waits for the goroutine count to fall back to at most
// want, returning the last count seen.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFanOutSkewedWorkloads: on workloads of very different trace length,
// the cost-balanced scheduler yields the live grid at every parallelism,
// with one pass per (workload, chunk of at most maxShardPoints) and the
// same pass shape whatever the width each pass was given.
func TestFanOutSkewedWorkloads(t *testing.T) {
	space := skewedSpace()
	live, err := Run(context.Background(), space, WithTraceSharing(false))
	if err != nil {
		t.Fatal(err)
	}
	perWorkload := len(live.Points) / 2
	wantPasses := 2 * ((perWorkload + maxShardPoints - 1) / maxShardPoints)
	if perWorkload <= maxShardPoints || wantPasses != 4 {
		t.Fatalf("%d points per workload: the space no longer splits workloads into passes", perWorkload)
	}
	var sinksPerPass float64
	for _, par := range []int{1, 2, 3, 8} {
		g, err := Run(context.Background(), space, WithParallelism(par))
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if !reflect.DeepEqual(stripCached(live), stripCached(g)) {
			t.Errorf("par=%d: fan-out grid diverges from live execution", par)
		}
		tr := g.Traces
		if tr.FanOutPasses != wantPasses || tr.Captures != 2 || tr.Replays != len(g.Points) {
			t.Errorf("par=%d: %d passes, %d captures, %d replays; want %d, 2, %d",
				par, tr.FanOutPasses, tr.Captures, tr.Replays, wantPasses, len(g.Points))
		}
		if par == 1 {
			sinksPerPass = tr.SinksPerPass()
		} else if tr.SinksPerPass() != sinksPerPass {
			t.Errorf("par=%d: %.1f sinks per pass, %.1f at par=1", par, tr.SinksPerPass(), sinksPerPass)
		}
	}
}

// failingCache misses every Get and fails every Put.
type failingCache struct{ puts atomic.Int64 }

var errPut = errors.New("put failed")

func (c *failingCache) Get(string) (*PointResult, bool) { return nil, false }

func (c *failingCache) Put(string, *PointResult) error {
	c.puts.Add(1)
	return errPut
}

// TestFanOutSkewedFailures: a mid-sweep cancel and a failing result-cache
// Put each end the sweep with their error, stop the passes not yet
// finished, and leave no goroutine behind, at every parallelism.
func TestFanOutSkewedFailures(t *testing.T) {
	space := skewedSpace()
	total := 2 * 5 * 4 * 4
	for _, par := range []int{1, 2, 3, 8} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		done := 0
		_, err := Run(ctx, space, WithParallelism(par), WithProgress(func(p Progress) {
			if p.Done {
				mu.Lock()
				done++
				mu.Unlock()
				cancel()
			}
		}))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("par=%d: cancelled sweep returned %v", par, err)
		}
		if done >= total {
			t.Errorf("par=%d: cancelled sweep still finished all %d points", par, done)
		}
		if n := settledGoroutines(before); n > before {
			t.Errorf("par=%d: %d goroutines after the cancelled sweep, %d before", par, n, before)
		}

		fc := &failingCache{}
		_, err = Run(context.Background(), space, WithParallelism(par), WithCache(fc))
		if !errors.Is(err, errPut) {
			t.Errorf("par=%d: sweep with a failing Put returned %v", par, err)
		}
		if n := fc.puts.Load(); n >= int64(total) {
			t.Errorf("par=%d: %d Puts after the first failed; the other passes were not stopped", par, n)
		}
		if n := settledGoroutines(before); n > before {
			t.Errorf("par=%d: %d goroutines after the failed sweep, %d before", par, n, before)
		}
	}
}
