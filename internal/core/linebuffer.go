package core

import (
	"waymemo/internal/cache"
	"waymemo/internal/stats"
	"waymemo/internal/trace"
)

// DLineBufferController is the combination the paper's conclusion names as
// ongoing work: a single line buffer in front of the way-memoized D-cache.
// Accesses that stay within the most recently touched line are served from
// the buffer (no tag, no way, no MAB activity — the MAB stays clock-gated);
// everything else follows the normal MAB path and re-latches the buffer.
// Unlike Su & Despain's stand-alone line buffer [13], no extra cycle is
// charged on a buffer miss: the buffer is probed in parallel with the MAB,
// which already produces its answer inside the address-generation cycle.
type DLineBufferController struct {
	Cache *cache.Cache
	MAB   *MAB
	Stats *stats.Counters

	pt Point

	bufValid bool
	bufLine  uint32
	bufWay   int
	bufDirty bool
}

var (
	_ trace.DataSink      = (*DLineBufferController)(nil)
	_ trace.DataBatchSink = (*DLineBufferController)(nil)
)

// OnDataBatch processes one replayed block of accesses with direct calls on
// the concrete controller (see IController.OnFetchBatch).
func (d *DLineBufferController) OnDataBatch(evs []trace.DataEvent) {
	for i := range evs {
		d.OnData(evs[i])
	}
}

// NewDLineBufferController builds the combined controller.
func NewDLineBufferController(geo cache.Config, mcfg Config) *DLineBufferController {
	d := &DLineBufferController{}
	d.pt.init(geo, nil, []Config{mcfg})
	d.Cache, d.MAB, d.Stats = d.pt.Cache, d.pt.MABs[0], d.pt.Stats[0]
	mabEvict := d.Cache.OnEvict
	d.Cache.OnEvict = func(ev cache.Eviction) {
		if mabEvict != nil {
			mabEvict(ev)
		}
		if d.bufValid && geo.Set(d.bufLine) == ev.Set && geo.Tag(d.bufLine) == ev.Tag {
			d.bufValid, d.bufDirty = false, false
		}
	}
	return d
}

// OnData serves the access from the buffer, the MAB, or the full path.
func (d *DLineBufferController) OnData(ev trace.DataEvent) {
	s := d.Stats
	line := d.Cache.Config().LineAddr(ev.Addr)
	s.BufReads++
	if d.bufValid && line == d.bufLine {
		countAccess(s, ev.Store)
		s.BufHits++
		s.Hits++
		d.Cache.Touch(ev.Addr, d.bufWay)
		if ev.Store {
			s.BufWrites++
			d.bufDirty = true
			d.Cache.MarkDirty(ev.Addr, d.bufWay)
		}
		return
	}
	// Buffer miss: flush a dirty buffered line, then the MAB path, which
	// counts the access.
	if d.bufValid && d.bufDirty {
		s.WayWrites++
		d.bufDirty = false
	}
	way := d.pt.access(ev.Addr, ev.Base, ev.Disp, ev.Store, !d.pt.adder.inRange(ev.Disp))
	d.bufValid, d.bufLine, d.bufWay = true, line, way
	d.bufDirty = ev.Store
	s.BufWrites++
}
