package core

import (
	"waymemo/internal/cache"
	"waymemo/internal/stats"
	"waymemo/internal/trace"
)

// DController is the way-memoized data-cache controller of Figure 1: a MAB
// probed with (base register, displacement) in parallel with address
// generation. On a MAB hit the tag arrays stay dark and exactly one data way
// is activated; on a miss the access proceeds conventionally and the MAB is
// updated with the observed way.
//
// Stores model the FR-V write-back buffer (§4): even without the MAB they
// read all tag ways but write only the single matching data way.
//
// It is the one-MAB, no-baseline case of Point.
type DController struct {
	Cache *cache.Cache
	MAB   *MAB
	Stats *stats.Counters

	pt Point
}

var (
	_ trace.DataSink      = (*DController)(nil)
	_ trace.DataBatchSink = (*DController)(nil)
)

// NewDController builds a cache plus MAB pair with the consistency policy
// wiring requested in mcfg.
func NewDController(geo cache.Config, mcfg Config) *DController {
	d := &DController{}
	d.pt.init(geo, nil, []Config{mcfg})
	d.Cache, d.MAB, d.Stats = d.pt.Cache, d.pt.MABs[0], d.pt.Stats[0]
	return d
}

// OnDataBatch processes one replayed block of accesses with direct calls on
// the concrete controller (see IController.OnFetchBatch).
func (d *DController) OnDataBatch(evs []trace.DataEvent) { d.pt.OnDataBatch(evs) }

// OnData processes one load or store.
func (d *DController) OnData(ev trace.DataEvent) { d.pt.OnData(ev) }
