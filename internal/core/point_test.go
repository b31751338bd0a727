package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"waymemo/internal/baseline"
	"waymemo/internal/cache"
	"waymemo/internal/core"
	"waymemo/internal/stats"
	"waymemo/internal/synth"
	"waymemo/internal/trace"
	"waymemo/internal/workloads"
)

// pointMABs is the technique mix of the equivalence wall: the sound policy
// at several sizes, and the paper's policy under every clearing rule.
var pointMABs = []core.Config{
	{TagEntries: 2, SetEntries: 8},
	{TagEntries: 1, SetEntries: 4},
	{TagEntries: 2, SetEntries: 32},
	{TagEntries: 2, SetEntries: 8, Consistency: core.PolicyPaper, Clear: core.ClearAll},
	{TagEntries: 2, SetEntries: 16, Consistency: core.PolicyPaper, Clear: core.ClearLRURow},
	{TagEntries: 1, SetEntries: 8, Consistency: core.PolicyPaper, Clear: core.ClearNone},
	{TagEntries: 4, SetEntries: 4, Consistency: core.PolicyPaper, Clear: core.ClearNone},
}

// wallGeometries is ways {1,2,4,8} x line {16,32,64} x sets {64,512,1024}.
func wallGeometries() []cache.Config {
	var out []cache.Config
	for _, ways := range []int{1, 2, 4, 8} {
		for _, line := range []int{16, 32, 64} {
			for _, sets := range []int{64, 512, 1024} {
				out = append(out, cache.Config{Sets: sets, Ways: ways, LineBytes: line})
			}
		}
	}
	return out
}

// equalCounters fails the test when a grouped technique's counters differ
// from its independent controller's.
func equalCounters(t *testing.T, what string, got, want *stats.Counters) {
	t.Helper()
	if *got != *want {
		t.Fatalf("%s: grouped counters diverge\n got %+v\nwant %+v", what, *got, *want)
	}
}

// checkDataPoint feeds evs to one core.Point and to independent
// controllers (baseline.OriginalD and one DController per MAB) and demands
// identical counters. It returns the violations the point counted.
func checkDataPoint(t *testing.T, name string, geo cache.Config, cfgs []core.Config, evs []trace.DataEvent) uint64 {
	t.Helper()
	p := core.NewPoint(geo, cfgs...)
	base := baseline.NewOriginalD(geo)
	p.OnDataBatch(evs)
	base.OnDataBatch(evs)
	equalCounters(t, fmt.Sprintf("%s %v data baseline", name, geo), p.Base, base.Stats)
	var violations uint64
	for k, cfg := range cfgs {
		d := core.NewDController(geo, cfg)
		d.OnDataBatch(evs)
		equalCounters(t, fmt.Sprintf("%s %v data %v policy %d clear %d", name, geo, cfg, cfg.Consistency, cfg.Clear),
			p.Stats[k], d.Stats)
		if got, want := p.MABs[k].ValidPairs(), d.MAB.ValidPairs(); got != want {
			t.Fatalf("%s %v data %v: %d valid pairs, independent %d", name, geo, cfg, got, want)
		}
		violations += p.Stats[k].Violations
	}
	return violations
}

// checkFetchPoint is checkDataPoint on the fetch stream, against
// baseline.OriginalI and one IController per MAB.
func checkFetchPoint(t *testing.T, name string, geo cache.Config, cfgs []core.Config, evs []trace.FetchEvent) uint64 {
	t.Helper()
	p := core.NewPoint(geo, cfgs...)
	base := baseline.NewOriginalI(geo)
	p.OnFetchBatch(evs)
	base.OnFetchBatch(evs)
	equalCounters(t, fmt.Sprintf("%s %v fetch baseline", name, geo), p.Base, base.Stats)
	var violations uint64
	for k, cfg := range cfgs {
		ic := core.NewIController(geo, cfg)
		ic.OnFetchBatch(evs)
		equalCounters(t, fmt.Sprintf("%s %v fetch %v policy %d clear %d", name, geo, cfg, cfg.Consistency, cfg.Clear),
			p.Stats[k], ic.Stats)
		if got, want := p.MABs[k].ValidPairs(), ic.MAB.ValidPairs(); got != want {
			t.Fatalf("%s %v fetch %v: %d valid pairs, independent %d", name, geo, cfg, got, want)
		}
		violations += p.Stats[k].Violations
	}
	return violations
}

// capture executes a workload and returns its two event streams.
func capture(t testing.TB, name string) ([]trace.DataEvent, []trace.FetchEvent) {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf trace.Buffer
	if _, err := workloads.Run(w, &buf, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Datas(), buf.Fetches()
}

// TestPointMatchesIndependentControllers is the equivalence wall of the
// shared-cache point controller: on the DCT and FFT captures and on every
// synthetic pattern under both ISAs, over ways {1,2,4,8} x line {16,32,64}
// x sets {64,512,1024}, the point's baseline counters equal
// baseline.OriginalD/OriginalI's and each MAB's counters equal an
// independent DController/IController's, under the sound policy and under
// the paper's with every clearing rule. Workloads take turns through the
// geometry list, so together they cover every geometry. The paper's policy
// must produce violations somewhere on the wall (the kernels on
// direct-mapped caches and a seeded random stream do), so the grouped
// controller's detection of them is exercised, not assumed.
func TestPointMatchesIndependentControllers(t *testing.T) {
	type wl struct {
		name string
		geos int // geometries this workload takes from the rotation
	}
	var wls []wl
	synthGeos, synthN := 3, 1024
	if !testing.Short() {
		// The kernels' captures are long; -short leaves them out.
		wls = []wl{{"DCT", 3}, {"FFT", 3}}
		synthGeos, synthN = 9, 1500
	}
	for _, p := range synth.Patterns() {
		spec := fmt.Sprintf("synth:%s,fp=16KiB,n=%d", p, synthN)
		wls = append(wls, wl{spec, synthGeos}, wl{workloads.RV32Prefix + spec, synthGeos})
	}
	geos := wallGeometries()
	next, covered := 0, map[cache.Config]bool{}
	var violations uint64
	for _, w := range wls {
		datas, fetches := capture(t, w.name)
		for range w.geos {
			geo := geos[next%len(geos)]
			next++
			covered[geo] = true
			violations += checkDataPoint(t, w.name, geo, pointMABs, datas)
			violations += checkFetchPoint(t, w.name, geo, pointMABs, fetches)
		}
	}
	// A seeded random stream on a tiny direct-mapped cache, where the
	// paper's policy keeps tripping over stale pairs.
	in := make([]byte, 1+4*4096)
	rand.New(rand.NewSource(1)).Read(in)
	in[0] = 0 // 4 sets, 1 way, 16-byte lines
	geo, datas, fetches := fuzzStreams(in)
	violations += checkDataPoint(t, "random", geo, pointMABs, datas)
	violations += checkFetchPoint(t, "random", geo, pointMABs, fetches)
	if len(covered) != len(geos) {
		t.Errorf("the wall covered %d of %d geometries", len(covered), len(geos))
	}
	if violations == 0 {
		t.Error("no PolicyPaper violation anywhere on the wall; the wall no longer exercises their detection")
	}
}

// TestPointWithoutMABs: a point with no MAB is exactly the conventional
// cache.
func TestPointWithoutMABs(t *testing.T) {
	datas, fetches := capture(t, "synth:pchase,fp=16KiB,n=2000")
	geo := cache.Config{Sets: 64, Ways: 2, LineBytes: 32}
	checkDataPoint(t, "pchase", geo, nil, datas)
	checkFetchPoint(t, "pchase", geo, nil, fetches)
}

// fuzzPool holds the base addresses fuzz streams draw from: a few nearby
// lines, set-aliasing strides and far regions, so small caches see
// conflicts and the MAB sees shared tags and shared set indices.
var fuzzPool = [8]uint32{0x10000, 0x10008, 0x10040, 0x10400, 0x14000, 0x20000, 0x7fff0, 0x80010}

// fuzzDisp decodes a displacement: small, line-scaled, or beyond any low
// adder's reach in either direction.
func fuzzDisp(class, v byte) int32 {
	switch class & 3 {
	case 0:
		return int32(int8(v))
	case 1:
		return int32(int8(v)) * 64
	case 2:
		return int32(v)<<16 + 1<<16
	}
	return -(int32(v)<<16 + 1<<16)
}

// fuzzStreams decodes fuzz input into a small geometry and a data and a
// fetch stream that follow the trace protocol: a data access's address is
// base+disp, and every fetch's Prev is the previous fetch's address.
func fuzzStreams(in []byte) (cache.Config, []trace.DataEvent, []trace.FetchEvent) {
	geo := cache.Config{Sets: 4, Ways: 1, LineBytes: 16}
	if len(in) > 0 {
		geo.Sets = []int{4, 16, 64, 512}[in[0]&3]
		geo.Ways = []int{1, 2, 4, 8}[in[0]>>2&3]
		geo.LineBytes = []int{16, 32, 64, 16}[in[0]>>4&3]
		in = in[1:]
	}
	var datas []trace.DataEvent
	var fetches []trace.FetchEvent
	prev := uint32(0)
	for ; len(in) >= 4; in = in[4:] {
		b0, b1, b2, b3 := in[0], in[1], in[2], in[3]
		base, disp := fuzzPool[b0&7], fuzzDisp(b1>>6, b2)
		datas = append(datas, trace.DataEvent{Addr: base + uint32(disp), Base: base, Disp: disp,
			Store: b3&1 != 0, Size: 4})

		ev := trace.FetchEvent{Prev: prev, Kind: trace.ControlKind(b0 >> 3 & 3), First: len(fetches) == 0 || b3 == 0xff}
		switch ev.Kind {
		case trace.KindSeq:
			ev.Base, ev.Disp = prev, 8
		case trace.KindBranch:
			ev.Base, ev.Disp = prev, disp&^7
		case trace.KindLink:
			ev.Base = fuzzPool[b1&7]
		case trace.KindIndirect:
			ev.Addr = fuzzPool[b1&7] + uint32(b2)*8
		}
		if ev.Kind != trace.KindIndirect {
			ev.Addr = ev.Base + uint32(ev.Disp)
		}
		fetches = append(fetches, ev)
		prev = ev.Addr
	}
	return geo, datas, fetches
}

// FuzzGroupedController holds the shared-cache point controller to
// independent controllers on arbitrary protocol-conforming streams: out of
// range displacements, stores, first and indirect fetches, tiny caches
// under heavy conflict, and every consistency policy and clearing rule.
func FuzzGroupedController(f *testing.F) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 4, 64, 512} {
		in := make([]byte, 1+4*n)
		r.Read(in)
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		// Streams beyond a few hundred events find nothing shorter ones
		// do not, and make every execution and minimization slower.
		if len(in) > 1+4*512 {
			in = in[:1+4*512]
		}
		geo, datas, fetches := fuzzStreams(in)
		checkDataPoint(t, "fuzz", geo, pointMABs, datas)
		checkFetchPoint(t, "fuzz", geo, pointMABs, fetches)
	})
}

// TestSteadyStateAllocs pins the replay hot path allocation-free: a built
// point consumes whole batches of either stream, and a MAB probes and
// updates, without touching the heap.
func TestSteadyStateAllocs(t *testing.T) {
	datas, fetches := capture(t, "synth:phase,fp=16KiB,n=1500")
	geo := cache.Config{Sets: 64, Ways: 2, LineBytes: 32}
	dp, fp := core.NewPoint(geo, pointMABs...), core.NewPoint(geo, pointMABs...)
	if n := testing.AllocsPerRun(5, func() { dp.OnDataBatch(datas) }); n != 0 {
		t.Errorf("Point.OnDataBatch: %.1f allocations per batch", n)
	}
	if n := testing.AllocsPerRun(5, func() { fp.OnFetchBatch(fetches) }); n != 0 {
		t.Errorf("Point.OnFetchBatch: %.1f allocations per batch", n)
	}
	m := core.New(core.DefaultD, cache.FRV32K)
	base := uint32(0x100000)
	if n := testing.AllocsPerRun(1000, func() {
		base += 36
		if !m.Probe(base, 8).Hit {
			m.Update(base, 8, 1)
		}
	}); n != 0 {
		t.Errorf("MAB probe+update: %.1f allocations", n)
	}
}
