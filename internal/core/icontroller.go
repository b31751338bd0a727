package core

import (
	"waymemo/internal/cache"
	"waymemo/internal/stats"
	"waymemo/internal/trace"
)

// IController is the way-memoized instruction-cache controller of Figure 2.
//
// Intra-line sequential fetches (case 1 of the paper's flow taxonomy) are
// satisfied with no tag access and a single way read using the previous
// fetch's way, exactly as in Panwar & Rennels [4] — the fetched line cannot
// have left the cache since the previous cycle.
//
// All other flows probe the MAB with one of its three input types:
//
//	sequential line crossing:  base = previous packet, disp = packet stride
//	taken branch/direct jump:  base = branch PC,       disp = encoded offset
//	jump to link register:     base = link value,      disp = 0
//
// Indirect jumps through other registers have no base+displacement form and
// bypass the MAB.
//
// It is the one-MAB, no-baseline case of Point.
type IController struct {
	Cache *cache.Cache
	MAB   *MAB
	Stats *stats.Counters

	pt Point
}

var (
	_ trace.FetchSink      = (*IController)(nil)
	_ trace.FetchBatchSink = (*IController)(nil)
)

// NewIController builds the I-cache controller with its MAB.
func NewIController(geo cache.Config, mcfg Config) *IController {
	ic := &IController{}
	ic.pt.init(geo, nil, []Config{mcfg})
	ic.Cache, ic.MAB, ic.Stats = ic.pt.Cache, ic.pt.MABs[0], ic.pt.Stats[0]
	return ic
}

// OnFetchBatch processes one replayed block of fetches. The loop dispatches
// on the concrete controller — no per-event interface call — which is what
// makes the batched fan-out replay's inner loop a plain slice walk.
func (ic *IController) OnFetchBatch(evs []trace.FetchEvent) { ic.pt.OnFetchBatch(evs) }

// OnFetch processes one packet fetch.
func (ic *IController) OnFetch(ev trace.FetchEvent) { ic.pt.OnFetch(ev) }
