package core

import (
	"waymemo/internal/cache"
	"waymemo/internal/stats"
	"waymemo/internal/trace"
)

// Point is the shared-cache controller of one cache geometry: the
// conventional baseline and any number of way-memoized techniques (one per
// MAB) driven by a single cache model.
//
// Sharing is exact because the techniques are independent of each other in
// everything but their counters. A MAB only decides which tag and data
// arrays switch on; it never changes which lines hit, miss, refill or get
// evicted (paper §3: the technique "does not sacrifice the performance").
// A memoized way is trusted only when the line is resident there before the
// access, so even PolicyPaper's stale pairs are caught and counted as
// Violations rather than changing the cache. Every technique at a geometry
// therefore sees the same cache state, and one model serves them all. Per
// event the Point computes the MAB key once, probes every MAB, performs the
// cache access once (fanning each eviction out to every MAB under
// PolicyEvictInvalidate), and charges each technique's counters. Base then
// equals baseline.OriginalD's (or OriginalI's) counters and Stats[k] equals
// an independent DController's (or IController's) with MABs[k]'s
// configuration, counter for counter.
//
// A Point is both a trace.DataSink and a trace.FetchSink: feed it the one
// stream of the cache it models. On the fetch stream it relies on the trace
// protocol's Prev being the previously fetched packet, as the IController
// does.
type Point struct {
	Cache *cache.Cache
	// Base receives the conventional baseline's counters; nil in the
	// single-MAB controllers, which attach no baseline.
	Base *stats.Counters
	// MABs are the way-memoized techniques; Stats[k] counts MABs[k]'s.
	MABs  []*MAB
	Stats []*stats.Counters

	ways  uint64
	line  uint32
	adder lowAdder
	evict []*MAB     // the MABs under PolicyEvictInvalidate
	slots []pairSlot // per-MAB probe outcome of a miss in flight

	prevWay  int
	havePrev bool
}

// pairSlot is the tag row and set column (each -1 when absent) a MAB's
// probe resolved a missing access to, for the update after the refill.
type pairSlot struct{ i, j int32 }

var (
	_ trace.DataSink       = (*Point)(nil)
	_ trace.DataBatchSink  = (*Point)(nil)
	_ trace.FetchSink      = (*Point)(nil)
	_ trace.FetchBatchSink = (*Point)(nil)
)

// NewPoint builds the shared-cache controller of one geometry: the
// conventional baseline plus one way-memoized technique per MAB
// configuration, each wired for its own consistency policy.
func NewPoint(geo cache.Config, cfgs ...Config) *Point {
	p := &Point{}
	p.init(geo, &stats.Counters{}, cfgs)
	return p
}

// init builds the cache and the MABs in place, so the eviction fan-out is
// bound to the Point's final address.
func (p *Point) init(geo cache.Config, base *stats.Counters, cfgs []Config) {
	p.Cache = cache.New(geo)
	p.Base = base
	p.ways = uint64(geo.Ways)
	p.line = uint32(geo.LineBytes)
	p.adder = newLowAdder(geo)
	p.slots = make([]pairSlot, len(cfgs))
	for _, cfg := range cfgs {
		m := New(cfg, geo)
		p.MABs = append(p.MABs, m)
		p.Stats = append(p.Stats, &stats.Counters{})
		if cfg.Consistency == PolicyEvictInvalidate {
			p.evict = append(p.evict, m)
		}
	}
	if len(p.evict) > 0 {
		p.Cache.OnEvict = p.onEvict
	}
}

func (p *Point) onEvict(ev cache.Eviction) {
	for _, m := range p.evict {
		m.OnEviction(ev)
	}
}

// OnDataBatch processes one replayed block of data accesses with direct
// calls (see IController.OnFetchBatch).
func (p *Point) OnDataBatch(evs []trace.DataEvent) {
	for i := range evs {
		p.OnData(evs[i])
	}
}

// OnData processes one load or store for every technique.
func (p *Point) OnData(ev trace.DataEvent) {
	// Out of the low adder's range the MAB is bypassed and conservatively
	// cleared per its clearing rule.
	p.access(ev.Addr, ev.Base, ev.Disp, ev.Store, !p.adder.inRange(ev.Disp))
}

// OnFetchBatch processes one replayed block of fetches with direct calls.
func (p *Point) OnFetchBatch(evs []trace.FetchEvent) {
	for i := range evs {
		p.OnFetch(evs[i])
	}
}

// OnFetch processes one packet fetch for every technique.
func (p *Point) OnFetch(ev trace.FetchEvent) {
	if !ev.First {
		// Classify gets a literal of the fields it reads, not a copy of
		// ev: copying the event reloads as whole words the fields that
		// arrived in registers and were spilled piecemeal, which stalls
		// store-to-load forwarding on every fetch.
		flow := trace.Classify(trace.FetchEvent{Addr: ev.Addr, Prev: ev.Prev, Kind: ev.Kind}, p.line)
		if flow == trace.IntraSeq && p.havePrev {
			// Case 1: the line was fetched last cycle; its way is known and
			// it cannot have been evicted in between. The conventional
			// cache still does a full fetch, which hits in that way.
			if b := p.Base; b != nil {
				countAccess(b, false)
				b.Flow[flow]++
				p.chargeFull(b, false, true, false)
			}
			for _, s := range p.Stats {
				countAccess(s, false)
				s.Flow[flow]++
				s.Case1Skips++
				s.Hits++
				s.WayReads++
			}
			p.Cache.Touch(ev.Addr, p.prevWay)
			return
		}
		if p.Base != nil {
			p.Base.Flow[flow]++
		}
		for _, s := range p.Stats {
			s.Flow[flow]++
		}
	}
	// Indirect jumps through other registers have no base+displacement
	// form, and branch offsets may exceed the low adder's reach: both
	// bypass the MAB, as does the first fetch after reset.
	bypass := ev.First || ev.Kind == trace.KindIndirect || !p.adder.inRange(ev.Disp)
	p.prevWay = p.access(ev.Addr, ev.Base, ev.Disp, false, bypass)
	p.havePrev = true
}

func countAccess(s *stats.Counters, store bool) {
	s.Accesses++
	if store {
		s.Stores++
	} else {
		s.Loads++
	}
}

// access is the MAB step of every way-memoized controller, for all of the
// Point's MABs at once, around the one cache access, counting the access
// for every technique. It returns the way that holds the line afterwards.
func (p *Point) access(addr, base uint32, disp int32, store, bypass bool) int {
	c := p.Cache
	way, hit := c.Lookup(addr)
	var key, setIdx uint32
	var cflag uint8
	if bypass {
		for k, m := range p.MABs {
			countAccess(p.Stats[k], store)
			p.Stats[k].MABBypasses++
			m.OnBypass()
		}
	} else {
		key, cflag, setIdx = p.adder.key(base, disp)
		for k, m := range p.MABs {
			s := p.Stats[k]
			countAccess(s, store)
			s.MABLookups++
			i, j := m.find(key, cflag, setIdx)
			if mabWay, ok := m.probeAt(i, j); ok {
				// A memoized way counts only when the line sits there
				// before the access.
				if hit && mabWay == way {
					s.MABHits++
					s.Hits++
					if store {
						s.WayWrites++
					} else {
						s.WayReads++
					}
					continue
				}
				// The memoized line was displaced: only reachable under
				// PolicyPaper. Hardware would return the wrong way's data;
				// the simulator counts it and recovers with a full access.
				s.Violations++
				m.clearPair(i, j)
			}
			s.MABMisses++
			s.MABUpdates++
			if hit {
				// No refill follows, so nothing can change this MAB
				// between its probe and its update.
				p.chargeFull(s, store, true, false)
				m.install(i, j, key, cflag, setIdx, way)
				continue
			}
			p.slots[k] = pairSlot{i: int32(i), j: int32(j)}
		}
	}

	// The one cache access every technique shares.
	wb := false
	if !hit {
		var evc cache.Eviction
		way, evc = c.Fill(addr)
		wb = evc.Dirty
	}
	c.Touch(addr, way)
	if store {
		c.MarkDirty(addr, way)
	}

	if p.Base != nil {
		countAccess(p.Base, store)
		p.chargeFull(p.Base, store, hit, wb)
	}
	switch {
	case bypass:
		for _, s := range p.Stats {
			p.chargeFull(s, store, hit, wb)
		}
	case !hit:
		// Every MAB missed; install the refilled way now that the
		// refill's eviction has reached them.
		for k, m := range p.MABs {
			p.chargeFull(p.Stats[k], store, false, wb)
			sl := p.slots[k]
			m.install(int(sl.i), int(sl.j), key, cflag, setIdx, way)
		}
	}
	return way
}

// chargeFull counts one conventional access: every tag way is read, loads
// and fetches read every data way in parallel with the tag compare, a miss
// installs the line into one way, and a store writes the single matching
// way through the write-back buffer.
func (p *Point) chargeFull(s *stats.Counters, store, hit, writeBack bool) {
	s.TagReads += p.ways
	if !store {
		s.WayReads += p.ways
	}
	if hit {
		s.Hits++
	} else {
		s.Misses++
		s.Refills++
		s.WayWrites++
		if writeBack {
			s.WriteBacks++
		}
	}
	if store {
		s.WayWrites++
	}
}
