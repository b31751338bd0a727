package trace

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// wideSinks builds a fresh mixed sink set: native batch sinks and legacy
// per-event sinks (which reach the replay through the shim), on the fetch
// stream, the data stream and both.
func wideSinks() ([]SinkPair, []*batchLog, []*eventLog) {
	natives := []*batchLog{{}, {}, {}}
	legacies := []*eventLog{{}, {}, {}, {}}
	pairs := []SinkPair{
		{Fetch: natives[0], Data: natives[0]},
		{Fetch: legacies[0]},
		{Data: legacies[1]},
		{Fetch: natives[1]},
		{Fetch: legacies[2], Data: legacies[2]},
		{Data: natives[2]},
		{Fetch: legacies[3]},
	}
	return pairs, natives, legacies
}

// settledGoroutines waits for the goroutine count to fall back to at most
// want, returning the last count seen — exited goroutines can linger for a
// moment after their WaitGroup is released.
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

// TestReplayAllWidthEquivalence: a wide replay delivers to every sink —
// native or shimmed, fetch, data or both — exactly the events and block
// boundaries of a width-1 ReplayAll, at every width up to and beyond the
// sink count.
func TestReplayAllWidthEquivalence(t *testing.T) {
	b := buildInterleaved(21, chunkLen+3*batchLen+11, chunkLen+batchLen/2)
	refPairs, refNatives, refLegacies := wideSinks()
	if err := b.ReplayAll(context.Background(), refPairs); err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, 2, 3, 8, len(refPairs) + 5} {
		before := runtime.NumGoroutine()
		pairs, natives, legacies := wideSinks()
		if err := b.ReplayAllWidth(context.Background(), pairs, width); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if !reflect.DeepEqual(natives, refNatives) {
			t.Errorf("width %d: native batch sinks diverge from width 1", width)
		}
		if !reflect.DeepEqual(legacies, refLegacies) {
			t.Errorf("width %d: shimmed per-event sinks diverge from width 1", width)
		}
		if n := settledGoroutines(before); n > before {
			t.Errorf("width %d: %d goroutines after the pass, %d before", width, n, before)
		}
	}
	checkSameStreams(t, b, refNatives[0].Fetches, refNatives[0].Datas)
}

// TestReplayAllWidthCancel: cancelling mid-pass stops every consumer, the
// pass returns ctx.Err(), no sink sees the whole stream, each sink's
// deliveries are a block-aligned prefix, and no goroutine is left behind.
func TestReplayAllWidthCancel(t *testing.T) {
	var b Buffer
	total := 3 * chunkLen
	for i := 0; i < total; i++ {
		b.OnFetch(FetchEvent{Addr: uint32(i) * 8})
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelling := FetchFunc(func(ev FetchEvent) {
		if ev.Addr == uint32(batchLen+1)*8 { // inside the second block
			cancel()
		}
	})
	logs := []*eventLog{{}, {}, {}, {}, {}}
	pairs := []SinkPair{{Fetch: cancelling}}
	for _, l := range logs {
		pairs = append(pairs, SinkPair{Fetch: l})
	}
	err := b.ReplayAllWidth(ctx, pairs, 3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wide replay: err = %v", err)
	}
	for i, l := range logs {
		n := len(l.Fetches)
		if n >= total || n%batchLen != 0 {
			t.Fatalf("sink %d received %d of %d events", i, n, total)
		}
		for j, ev := range l.Fetches {
			if ev.Addr != uint32(j)*8 {
				t.Fatalf("sink %d event %d out of order: %+v", i, j, ev)
			}
		}
	}
	if n := settledGoroutines(before); n > before {
		t.Errorf("%d goroutines after the cancelled pass, %d before", n, before)
	}
}

// TestReplayAllWidthDecodeError: a corrupt sealed chunk fails a wide pass
// with the width-1 pass's decode error, every sink holding a block-aligned
// prefix of what the width-1 pass delivered before failing, and leaves no
// goroutine behind.
func TestReplayAllWidthDecodeError(t *testing.T) {
	b := buildInterleaved(22, 3*chunkLen, batchLen)
	b.fetch[1].addr.data = b.fetch[1].addr.data[:len(b.fetch[1].addr.data)/2]
	var ref batchLog
	refErr := b.ReplayAll(context.Background(), []SinkPair{{Fetch: &ref, Data: &ref}})
	if !errors.Is(refErr, errColumn) || len(ref.Fetches) >= 2*chunkLen {
		t.Fatalf("width 1 over a corrupt chunk: err = %v after %d fetches", refErr, len(ref.Fetches))
	}
	before := runtime.NumGoroutine()
	logs := []*batchLog{{}, {}, {}, {}}
	var pairs []SinkPair
	for _, l := range logs {
		pairs = append(pairs, SinkPair{Fetch: l, Data: l})
	}
	err := b.ReplayAllWidth(context.Background(), pairs, 2)
	if err == nil || err.Error() != refErr.Error() {
		t.Fatalf("corrupt chunk: err = %v, want %v", err, refErr)
	}
	for i, l := range logs {
		n := len(l.Fetches)
		if n%batchLen != 0 || n > len(ref.Fetches) || len(l.Datas) != 0 ||
			!slices.Equal(l.Fetches, ref.Fetches[:n]) {
			t.Fatalf("sink %d: %d fetches, %d datas — not a prefix of the width-1 delivery",
				i, n, len(l.Datas))
		}
	}
	if n := settledGoroutines(before); n > before {
		t.Errorf("%d goroutines after the failed pass, %d before", n, before)
	}
}

// TestReplayAllWidthSinkPanic: a panicking sink stops the wide pass and the
// panic resurfaces on the calling goroutine, where a worker pool's panic
// containment can catch it, with every consumer goroutine gone.
func TestReplayAllWidthSinkPanic(t *testing.T) {
	var b Buffer
	for i := 0; i < 4*batchLen; i++ {
		b.OnData(DataEvent{Addr: uint32(i) * 4, Size: 4})
	}
	before := runtime.NumGoroutine()
	var calls atomic.Int64
	poisoned := DataFunc(func(ev DataEvent) {
		if calls.Add(1) == batchLen+3 {
			panic("poisoned sink")
		}
	})
	pairs := []SinkPair{{Data: &eventLog{}}, {Data: poisoned}, {Data: &eventLog{}}}
	func() {
		defer func() {
			if v := recover(); v != "poisoned sink" {
				t.Errorf("recovered %v, want the sink's panic", v)
			}
		}()
		b.ReplayAllWidth(context.Background(), pairs, 3)
		t.Error("wide replay returned normally past a panicking sink")
	}()
	if n := settledGoroutines(before); n > before {
		t.Errorf("%d goroutines after the panicked pass, %d before", n, before)
	}
}
