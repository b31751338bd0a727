package trace

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Buffer is a compact in-memory recording of one execution's event streams,
// built for the execute-once / replay-many pattern: the simulator runs a
// workload once with the Buffer attached as both sinks, and the captured
// streams are then replayed to any number of cache techniques and geometries
// without re-executing a single instruction — all of them in one batched
// pass over the storage (ReplayAll), so the capture streams through memory
// once per sweep, not once per technique.
//
// Storage is compressed column chunks: events are staged into fixed-size
// structure-of-arrays chunks and, each time a chunk fills, sealed into the
// delta/varint column encoding of columns.go (~5 bytes per fetch event on
// the paper's workloads instead of the 24 of the unpacked struct, with a
// per-column raw fallback for incompressible streams). Replay decodes each
// sealed chunk block-wise into a batchLen event scratch that stays L2-hot
// while every sink of the pass walks it, so a fan-out pass streams the
// encoded bytes — severalfold fewer than raw columns — exactly once. The
// program-order interleaving of the two streams is kept as one bit per
// event, which is what lets WriteTo spill the buffer to the WMTRACE2 file
// format (sealed chunks verbatim) and ReadBuffer reload it losslessly.
//
// A Buffer is append-only: it implements FetchSink and DataSink for capture
// and is safe for any number of concurrent replays once capture has
// finished. It is not safe to append and replay concurrently.
type Buffer struct {
	fetch []encFetchChunk // sealed full chunks, chunkLen events each
	data  []encDataChunk
	// The not-yet-full tail of each stream stays raw in a staging chunk
	// (reused after each seal), so appends never re-encode.
	fstage *fetchChunk
	dstage *dataChunk
	nf     int
	nd     int

	// order holds one bit per recorded event in arrival order: 0 = fetch,
	// 1 = data. It preserves the program-order interleaving for WriteTo.
	order []uint64
	n     int

	// at caches the one most recently decoded chunk per stream for the
	// random-access FetchAt/DataAt path (tests and tools; replay never
	// touches it).
	at atCache
}

const (
	chunkShift = 15
	chunkLen   = 1 << chunkShift // events per chunk
	chunkMask  = chunkLen - 1

	// kind column packing: low 7 bits hold the ControlKind, the top bit
	// flags the first fetch after reset.
	fetchKindMask  = 0x7f
	fetchFirstFlag = 0x80

	// meta column packing: low 7 bits hold the access size, the top bit
	// flags a store.
	dataSizeMask  = 0x7f
	dataStoreFlag = 0x80
)

// fetchChunk is one staging block of raw column-packed fetch events.
type fetchChunk struct {
	addr [chunkLen]uint32
	prev [chunkLen]uint32
	base [chunkLen]uint32
	disp [chunkLen]int32
	kind [chunkLen]uint8
}

// dataChunk is one staging block of raw column-packed data events.
type dataChunk struct {
	addr [chunkLen]uint32
	base [chunkLen]uint32
	disp [chunkLen]int32
	meta [chunkLen]uint8
}

// atCache memoizes one decoded chunk per stream for FetchAt/DataAt.
type atCache struct {
	mu sync.Mutex
	fi int // index of the decoded fetch chunk, or 0 with f == nil
	f  *fetchChunk
	di int
	d  *dataChunk
}

// NumFetches returns the number of recorded fetch events.
func (b *Buffer) NumFetches() int { return b.nf }

// NumDatas returns the number of recorded data events.
func (b *Buffer) NumDatas() int { return b.nd }

// Len returns the total number of recorded events.
func (b *Buffer) Len() int { return b.n }

// EncodedBytes returns the compressed footprint of the sealed chunks plus
// the raw footprint of the staged tails — the bytes one replay pass streams.
func (b *Buffer) EncodedBytes() int64 {
	var total int64
	for i := range b.fetch {
		total += int64(b.fetch[i].encodedBytes())
	}
	for i := range b.data {
		total += int64(b.data[i].encodedBytes())
	}
	total += int64((b.nf & chunkMask) * 17)
	total += int64((b.nd & chunkMask) * 13)
	return total
}

func (b *Buffer) pushOrder(isData bool) {
	if b.n&63 == 0 {
		b.order = append(b.order, 0)
	}
	if isData {
		b.order[b.n>>6] |= 1 << (b.n & 63)
	}
	b.n++
}

// OnFetch appends one fetch event to the buffer.
func (b *Buffer) OnFetch(ev FetchEvent) {
	i := b.nf & chunkMask
	if b.fstage == nil {
		b.fstage = new(fetchChunk)
	}
	st := b.fstage
	st.addr[i] = ev.Addr
	st.prev[i] = ev.Prev
	st.base[i] = ev.Base
	st.disp[i] = ev.Disp
	k := uint8(ev.Kind) & fetchKindMask
	if ev.First {
		k |= fetchFirstFlag
	}
	st.kind[i] = k
	b.nf++
	if b.nf&chunkMask == 0 {
		b.fetch = append(b.fetch, sealFetchChunk(st, chunkLen))
	}
	b.pushOrder(false)
}

// OnData appends one data event to the buffer.
func (b *Buffer) OnData(ev DataEvent) {
	i := b.nd & chunkMask
	if b.dstage == nil {
		b.dstage = new(dataChunk)
	}
	st := b.dstage
	st.addr[i] = ev.Addr
	st.base[i] = ev.Base
	st.disp[i] = ev.Disp
	m := ev.Size & dataSizeMask
	if ev.Store {
		m |= dataStoreFlag
	}
	st.meta[i] = m
	b.nd++
	if b.nd&chunkMask == 0 {
		b.data = append(b.data, sealDataChunk(st, chunkLen))
	}
	b.pushOrder(true)
}

// fetchEventAt assembles the j-th event of a raw chunk.
func fetchEventAt(ch *fetchChunk, j int) FetchEvent {
	return FetchEvent{
		Addr:  ch.addr[j],
		Prev:  ch.prev[j],
		Base:  ch.base[j],
		Disp:  ch.disp[j],
		Kind:  ControlKind(ch.kind[j] & fetchKindMask),
		First: ch.kind[j]&fetchFirstFlag != 0,
	}
}

// dataEventAt assembles the j-th event of a raw chunk.
func dataEventAt(ch *dataChunk, j int) DataEvent {
	return DataEvent{
		Addr:  ch.addr[j],
		Base:  ch.base[j],
		Disp:  ch.disp[j],
		Size:  ch.meta[j] & dataSizeMask,
		Store: ch.meta[j]&dataStoreFlag != 0,
	}
}

// FetchAt returns the i-th recorded fetch event — a convenience for tests
// and tools. Sealed chunks are decoded whole and memoized one at a time, so
// sequential scans stay linear; replay paths never come through here. A
// decode failure (possible only for a corrupt file-adopted chunk) panics:
// random access has no error channel, and load-time CRCs make it unreachable
// in practice.
func (b *Buffer) FetchAt(i int) FetchEvent {
	if full := len(b.fetch) * chunkLen; i >= full {
		return fetchEventAt(b.fstage, i-full)
	}
	ci := i >> chunkShift
	b.at.mu.Lock()
	defer b.at.mu.Unlock()
	if b.at.f == nil || b.at.fi != ci {
		if b.at.f == nil {
			b.at.f = new(fetchChunk)
		}
		if err := decodeFetchChunk(&b.fetch[ci], b.at.f); err != nil {
			panic(fmt.Sprintf("trace: fetch chunk %d: %v", ci, err))
		}
		b.at.fi = ci
	}
	return fetchEventAt(b.at.f, i&chunkMask)
}

// DataAt returns the i-th recorded data event; see FetchAt.
func (b *Buffer) DataAt(i int) DataEvent {
	if full := len(b.data) * chunkLen; i >= full {
		return dataEventAt(b.dstage, i-full)
	}
	ci := i >> chunkShift
	b.at.mu.Lock()
	defer b.at.mu.Unlock()
	if b.at.d == nil || b.at.di != ci {
		if b.at.d == nil {
			b.at.d = new(dataChunk)
		}
		if err := decodeDataChunk(&b.data[ci], b.at.d); err != nil {
			panic(fmt.Sprintf("trace: data chunk %d: %v", ci, err))
		}
		b.at.di = ci
	}
	return dataEventAt(b.at.d, i&chunkMask)
}

// SinkPair registers one consumer's sinks for a fan-out replay pass. Either
// sink may be nil; every technique in this repository consumes exactly one
// stream.
type SinkPair struct {
	Fetch FetchSink
	Data  DataSink
}

// batchLen is the number of events decoded per replay block: large enough
// that decode overhead and the one dynamic dispatch per block per sink are
// noise, small enough that the decoded block (~96KB of fetch events) stays
// resident in L2 while every sink of the pass walks it.
const batchLen = 4096

// Replay feeds both recorded streams to the sinks (either may be nil). It
// is ReplayAll over a single pair; see ReplayAll for ordering and
// cancellation semantics.
func (b *Buffer) Replay(ctx context.Context, fetch FetchSink, data DataSink) error {
	return b.ReplayAll(ctx, []SinkPair{{Fetch: fetch, Data: data}})
}

// ReplayAll fans the capture out to every registered sink in a single pass:
// each compressed column chunk is decoded into event blocks once, and each
// block is handed to all sinks (native batch sinks directly, legacy
// per-event sinks through the adapter shim) before the next block is
// touched — so an N-technique sweep streams the encoded bytes once instead
// of the raw bytes N times, and the hot block stays cache-resident.
// Per-sink event order is exactly capture order, identical to N independent
// Replay calls. It is ReplayAllWidth at width 1: one goroutine does it all.
//
// The two streams are replayed back to back, not interleaved: every sink in
// this repository consumes exactly one stream, so per-stream order — which
// is preserved exactly — is the only order that matters. Use WriteTo for a
// faithful program-order interleaving.
//
// ctx is checked between blocks, so a sweep cancels mid-fan-out with at
// most one partial block delivered. A corrupt file-adopted chunk surfaces
// as an error at the block that fails to decode, never as wrong events.
func (b *Buffer) ReplayAll(ctx context.Context, sinks []SinkPair) error {
	return b.ReplayAllWidth(ctx, sinks, 1)
}

// ReplayAllWidth is ReplayAll spread over up to width goroutines. Each
// stream's sinks are split in order into min(width, sinks) contiguous
// groups of near-equal size, so callers set each group's mix through the
// order of sinks. Every block is still decoded exactly once, straight into
// a slot of a small ring, and one consumer goroutine per group feeds its
// sinks every block in stream order, so each sink sees exactly what
// ReplayAll would deliver. Sinks of different groups run concurrently, so
// they must share no mutable state; one sink's calls never overlap. A slot
// is reused once every group has released it. A cancelled ctx or a decode
// error stops every consumer within a block; a panicking sink stops the
// pass and is re-raised on the calling goroutine. No goroutine outlives
// the call. Width <= 1 is ReplayAll's single-goroutine loop.
func (b *Buffer) ReplayAllWidth(ctx context.Context, sinks []SinkPair, width int) error {
	var fetch []FetchBatchSink
	var data []DataBatchSink
	for _, p := range sinks {
		if p.Fetch != nil {
			fetch = append(fetch, BatchFetchSink(p.Fetch))
		}
		if p.Data != nil {
			data = append(data, BatchDataSink(p.Data))
		}
	}
	if len(fetch) > 0 {
		it := fetchBlocks{b: b}
		if err := replayStream(ctx, width, fetch, it.next, FetchBatchSink.OnFetchBatch); err != nil {
			return err
		}
	}
	if len(data) > 0 {
		it := dataBlocks{b: b}
		if err := replayStream(ctx, width, data, it.next, DataBatchSink.OnDataBatch); err != nil {
			return err
		}
	}
	return nil
}

// replayStream delivers one stream, produced block by block by next (which
// decodes the next block into dst and returns its length, 0 at the end), to
// every sink through feed.
func replayStream[E, S any](ctx context.Context, width int, sinks []S,
	next func(dst []E) (int, error), feed func(S, []E)) error {
	if k := min(width, len(sinks)); k > 1 {
		// Contiguous groups, not a round-robin deal: sinks built one after
		// another sit side by side in memory, and interleaving them across
		// consumers makes cores fight over shared cache lines (a two-way
		// split of 48 D-cache controllers scaled 1.2x instead of 1.85x on a
		// 2-vCPU Xeon).
		groups := make([][]S, k)
		for i, s := range sinks {
			g := i * k / len(sinks)
			groups[g] = append(groups[g], s)
		}
		return replayWide(ctx, groups, next, feed)
	}
	block := make([]E, batchLen)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := next(block)
		if err != nil || n == 0 {
			return err
		}
		for _, s := range sinks {
			feed(s, block[:n])
		}
	}
}

// ringSlots is the number of decoded blocks a wide replay keeps in flight:
// enough that consumers of slightly different speed rarely wait on each
// other, few enough that the ring stays cache-resident.
const ringSlots = 4

// replayWide is replayStream with one consumer goroutine per sink group.
// The calling goroutine decodes; slots cycle producer → every consumer →
// free list, so each block is decoded once however many groups read it.
func replayWide[E, S any](ctx context.Context, groups [][]S,
	next func(dst []E) (int, error), feed func(S, []E)) error {
	var (
		slots   [ringSlots][]E
		lens    [ringSlots]int
		pending [ringSlots]atomic.Int32
		stop    atomic.Bool // set once the pass must deliver nothing more
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicV  any
	)
	free := make(chan int, ringSlots)
	for i := range slots {
		slots[i] = make([]E, batchLen)
		free <- i
	}
	// A consumer's queue never holds more than the ring's slots, so the
	// producer's sends never block.
	work := make([]chan int, len(groups))
	for g := range groups {
		work[g] = make(chan int, ringSlots)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work[g] {
				if !stop.Load() {
					if v := feedGroup(groups[g], slots[s][:lens[s]], feed); v != nil {
						panicMu.Lock()
						if panicV == nil {
							panicV = v
						}
						panicMu.Unlock()
						stop.Store(true)
					}
				}
				// Every consumer releases every slot, even when stopping,
				// so the producer can never wait on a slot forever.
				if pending[s].Add(-1) == 0 {
					free <- s
				}
			}
		}()
	}

	err := func() error {
		for !stop.Load() {
			if err := ctx.Err(); err != nil {
				return err
			}
			var s int
			select {
			case s = <-free:
			case <-ctx.Done():
				return ctx.Err()
			}
			n, err := next(slots[s])
			if err != nil || n == 0 {
				return err
			}
			lens[s] = n
			pending[s].Store(int32(len(groups)))
			for _, ch := range work {
				ch <- s
			}
		}
		return nil
	}()
	if err != nil {
		stop.Store(true)
	}
	for _, ch := range work {
		close(ch)
	}
	wg.Wait()
	if panicV != nil {
		panic(panicV)
	}
	return err
}

// feedGroup hands one block to each sink of a group, returning the value of
// a sink panic instead of letting it kill the consumer goroutine.
func feedGroup[E, S any](sinks []S, blk []E, feed func(S, []E)) (v any) {
	defer func() { v = recover() }()
	for _, s := range sinks {
		feed(s, blk)
	}
	return nil
}

// fetchBlocks decodes the fetch stream block-wise: the sealed chunks first,
// then the raw staging tail.
type fetchBlocks struct {
	b    *Buffer
	ci   int // current sealed chunk
	off  int // events already decoded from it
	cu   fetchCursors
	tail int // events already copied from the staging tail
	sc   blockScratch
}

// next decodes the following block into dst (len >= batchLen) and returns
// its event count, 0 once the stream is exhausted.
func (it *fetchBlocks) next(dst []FetchEvent) (int, error) {
	b := it.b
	for it.ci < len(b.fetch) {
		if it.off == 0 {
			it.cu = b.fetch[it.ci].cursors()
		}
		if it.off < chunkLen {
			if err := it.cu.decodeBlock(dst[:batchLen], &it.sc); err != nil {
				return 0, fmt.Errorf("trace: fetch chunk %d: %w", it.ci, err)
			}
			it.off += batchLen
			return batchLen, nil
		}
		if !it.cu.done() {
			return 0, fmt.Errorf("trace: fetch chunk %d: %w", it.ci, errColumn)
		}
		it.ci, it.off = it.ci+1, 0
	}
	m := min(batchLen, b.nf&chunkMask-it.tail)
	for i := 0; i < m; i++ {
		dst[i] = fetchEventAt(b.fstage, it.tail+i)
	}
	it.tail += m
	return m, nil
}

// dataBlocks is fetchBlocks for the data stream.
type dataBlocks struct {
	b    *Buffer
	ci   int
	off  int
	cu   dataCursors
	tail int
	sc   blockScratch
}

// next is fetchBlocks.next for the data stream.
func (it *dataBlocks) next(dst []DataEvent) (int, error) {
	b := it.b
	for it.ci < len(b.data) {
		if it.off == 0 {
			it.cu = b.data[it.ci].cursors()
		}
		if it.off < chunkLen {
			if err := it.cu.decodeBlock(dst[:batchLen], &it.sc); err != nil {
				return 0, fmt.Errorf("trace: data chunk %d: %w", it.ci, err)
			}
			it.off += batchLen
			return batchLen, nil
		}
		if !it.cu.done() {
			return 0, fmt.Errorf("trace: data chunk %d: %w", it.ci, errColumn)
		}
		it.ci, it.off = it.ci+1, 0
	}
	m := min(batchLen, b.nd&chunkMask-it.tail)
	for i := 0; i < m; i++ {
		dst[i] = dataEventAt(b.dstage, it.tail+i)
	}
	it.tail += m
	return m, nil
}

// Fetches materializes the recorded fetch stream as a fresh slice — a
// convenience for tests and tools, not the replay hot path.
func (b *Buffer) Fetches() []FetchEvent {
	out := make([]FetchEvent, b.nf+batchLen)
	it := fetchBlocks{b: b}
	for n := 0; ; {
		m, err := it.next(out[n:])
		if err != nil || m == 0 {
			return out[:n]
		}
		n += m
	}
}

// Datas materializes the recorded data stream as a fresh slice.
func (b *Buffer) Datas() []DataEvent {
	out := make([]DataEvent, b.nd+batchLen)
	it := dataBlocks{b: b}
	for n := 0; ; {
		m, err := it.next(out[n:])
		if err != nil || m == 0 {
			return out[:n]
		}
		n += m
	}
}

// countingWriter tracks bytes written through it for WriteTo's return value.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// ReadBuffer loads a WMTRACE1 or WMTRACE2 stream into a new Buffer,
// preserving the interleaving, so capture → WriteTo → ReadBuffer → Replay
// is indistinguishable from replaying the original capture. WMTRACE2 sealed
// chunks are adopted verbatim (CRC-checked, no re-encode); a partial tail
// chunk is decoded back into staging so the buffer stays appendable.
func ReadBuffer(r io.Reader) (*Buffer, error) {
	br := newTraceReader(r)
	v2, err := readMagic(br)
	if err != nil {
		return nil, fmt.Errorf("trace: loading buffer: %w", err)
	}
	b := new(Buffer)
	if v2 {
		if err := readBuffer2(br, b); err != nil {
			return nil, fmt.Errorf("trace: loading buffer: %w", err)
		}
		return b, nil
	}
	if err := readAll1(br, b, b); err != nil {
		return nil, fmt.Errorf("trace: loading buffer: %w", err)
	}
	return b, nil
}
