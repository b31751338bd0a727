package explore

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"waymemo/internal/cache"
	"waymemo/internal/core"
	"waymemo/internal/pool"
	"waymemo/internal/power"
	"waymemo/internal/stats"
	"waymemo/internal/suite"
	"waymemo/internal/trace"
	"waymemo/internal/workloads"
)

// TechOutcome is one technique's measurement at one grid point: the raw
// counters and the priced power breakdown. TagEntries == 0 marks the
// conventional baseline.
type TechOutcome struct {
	// ID is the technique name ("original", "mab-2x8", ...).
	ID string `json:"id"`
	// TagEntries and SetEntries are the MAB size, zero for the baseline.
	TagEntries int `json:"tag_entries,omitempty"`
	SetEntries int `json:"set_entries,omitempty"`

	Stats stats.Counters  `json:"stats"`
	Power power.Breakdown `json:"power"`
}

// PointResult is one completed grid point — everything the analysis layer
// needs, and exactly what the result cache stores on disk.
type PointResult struct {
	Geometry cache.Config `json:"geometry"`
	Workload string       `json:"workload"`
	Cycles   uint64       `json:"cycles"`
	Instrs   uint64       `json:"instrs"`
	// Techs is ordered: the baseline first, then the MAB grid in space
	// order.
	Techs []TechOutcome `json:"techs"`
	// Cached reports whether this run loaded the point from the result
	// cache instead of simulating it.
	Cached bool `json:"-"`
}

// Grid is a completed sweep: every point of the space, in deterministic
// grid order, plus this run's memoization outcome.
type Grid struct {
	// Space is the normalized specification (defaults filled in).
	Space Space
	// Points holds one result per grid point, geometry-major then
	// workload, independent of worker scheduling.
	Points []PointResult
	// Hits and Misses count grid points served from the result cache
	// versus simulated during this run. Hits+Misses == len(Points).
	Hits, Misses int
	// Traces reports the execute-once / replay-many engine's work: with
	// trace sharing on (the default), Captures counts full simulator
	// executions (at most one per workload × packet size) and Replays the
	// grid points served by replaying a capture.
	Traces suite.TraceCacheStats
}

// Progress reports one grid point starting (Done=false) or finishing.
// Callbacks are serialized by the engine.
type Progress struct {
	Index    int // position in the grid
	Total    int
	Geometry cache.Config
	Workload string
	// Cached is meaningful when Done: the point came from the result
	// cache.
	Cached bool
	Done   bool
}

// options collects the Run configuration; see the With* constructors.
type options struct {
	cache        Cache
	cacheDir     string
	parallelism  int
	progress     func(Progress)
	noTraceShare bool
	traceDir     string
	noBatch      bool
}

// Option configures Run.
type Option func(*options) error

// WithCache memoizes grid points in the given cache (default: none, every
// point simulates).
func WithCache(c Cache) Option {
	return func(o *options) error { o.cache = c; return nil }
}

// WithCacheDir memoizes grid points in a DirCache over dir; the directory
// is created if needed. It overrides WithCache. An empty dir is an error —
// silently running uncached would be the costlier surprise.
func WithCacheDir(dir string) Option {
	return func(o *options) error {
		if dir == "" {
			return fmt.Errorf("explore: empty cache directory")
		}
		o.cacheDir = dir
		return nil
	}
}

// WithParallelism sets the sweep's worker budget (default and n <= 0:
// GOMAXPROCS): the number of goroutines replaying at once. A replay pass
// over one workload's points may take several workers, which split its
// technique sinks while sharing one decode of the trace, so the budget
// counts cores kept busy, not grid points in flight. Results are identical
// at every level.
func WithParallelism(n int) Option {
	return func(o *options) error { o.parallelism = n; return nil }
}

// WithProgress installs a callback invoked as grid points start and finish.
func WithProgress(fn func(Progress)) Option {
	return func(o *options) error { o.progress = fn; return nil }
}

// WithTraceSharing toggles the execute-once / replay-many engine (default
// on): every workload is executed once per sweep and its captured event
// stream is replayed to all geometries of the grid, which is bit-identical
// to executing each point live (the replay golden test in internal/suite
// pins this) and several times faster on multi-geometry sweeps. Turning it
// off forces one full execution per grid point — useful only for
// benchmarking the engine itself.
func WithTraceSharing(on bool) Option {
	return func(o *options) error { o.noTraceShare = !on; return nil }
}

// WithBatchReplay toggles the batched fan-out scheduling (default on).
// Batched, the engine turns a sweep into per-(workload, packet) fan-out
// passes: each workload's uncached grid points are cut into passes of at
// most 64 points, and every pass instantiates one sink per point — the
// point's baseline and MAB sizes sharing one cache model (suite.NewPoint) —
// and feeds them all from a single pass over the workload's captured trace
// (suite.TraceCache.FanOutWidth), spread over as many workers as its share
// of the work earns — so a G-geometry sweep streams each capture a handful
// of times instead of once per technique per geometry. Off, the
// engine schedules one task per grid point, each replaying the capture once
// per technique into independent controllers — the legacy path, kept as an
// escape hatch for regression hunting. Results are bit-identical either
// way; ignored when trace sharing is disabled.
func WithBatchReplay(on bool) Option {
	return func(o *options) error { o.noBatch = !on; return nil }
}

// WithTraceDir additionally spills captured traces to dir as WMTRACE2 files
// (created if needed), so a later sweep in a fresh process reloads them
// instead of executing at all. An empty dir is an error.
func WithTraceDir(dir string) Option {
	return func(o *options) error {
		if dir == "" {
			return fmt.Errorf("explore: empty trace directory")
		}
		o.traceDir = dir
		return nil
	}
}

// Run expands the space into its grid and executes every point, fanning
// points out over a worker pool. Each point is one suite.Run over a single
// workload with the space's full technique list attached, so a point costs
// one simulator pass regardless of how many MAB sizes are swept — and with
// trace sharing (the default), even that pass happens only once per
// workload: the first point to need a workload executes it and captures its
// event streams, every other geometry replays the capture.
//
// With a result cache configured, points whose Key is already stored load
// instead of simulating, and newly simulated points are stored on
// completion — a warm cache re-runs an identical sweep without a single
// simulation (Grid.Misses == 0).
//
// Run returns the first error encountered (cancelling the remaining work),
// or ctx.Err() if the context ends first.
func Run(ctx context.Context, space Space, opts ...Option) (*Grid, error) {
	var o options
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if o.cacheDir != "" {
		dc, err := NewDirCache(o.cacheDir)
		if err != nil {
			return nil, err
		}
		o.cache = dc
	}
	var tc *suite.TraceCache
	switch {
	case o.noTraceShare && o.traceDir != "":
		return nil, fmt.Errorf("explore: trace directory given but trace sharing disabled")
	case o.traceDir != "":
		var err error
		if tc, err = suite.NewDirTraceCache(o.traceDir); err != nil {
			return nil, err
		}
	case !o.noTraceShare:
		tc = suite.NewTraceCache()
	}
	s, err := space.normalized()
	if err != nil {
		return nil, err
	}
	pts := s.points()
	techs := s.techniques()
	mabs := s.MABs()

	var progressMu sync.Mutex
	report := func(p Progress) {
		if o.progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		o.progress(p)
	}

	results := make([]PointResult, len(pts))
	var hits, misses int
	if tc != nil && !o.noBatch {
		hits, misses, err = runFanOut(ctx, s, pts, techs, mabs, o, tc, report, results)
	} else {
		hits, misses, err = runPerPoint(ctx, s, pts, techs, mabs, o, tc, report, results)
	}
	if err != nil {
		return nil, err
	}
	g := &Grid{
		Space:  s,
		Points: results,
		Hits:   hits,
		Misses: misses,
	}
	if tc != nil {
		g.Traces = tc.Stats()
	}
	return g, nil
}

// runPerPoint is the one-task-per-grid-point scheduler: the live path (no
// trace sharing) and the legacy escape hatch (WithBatchReplay(false)).
func runPerPoint(ctx context.Context, s Space, pts []Point, techs []suite.Technique,
	mabs []core.Config, o options, tc *suite.TraceCache,
	report func(Progress), results []PointResult) (int, int, error) {
	var hits, misses atomic.Int64
	err := pool.Run(ctx, len(pts), o.parallelism, func(runCtx context.Context, idx int) error {
		pt := pts[idx]
		report(Progress{Index: idx, Total: len(pts), Geometry: pt.Geometry, Workload: pt.Workload.Name})
		pr, cached, err := runPoint(runCtx, s, pt, techs, mabs, o.cache, tc)
		if err != nil {
			return err
		}
		if cached {
			hits.Add(1)
		} else {
			misses.Add(1)
		}
		results[idx] = *pr
		report(Progress{Index: idx, Total: len(pts), Geometry: pt.Geometry,
			Workload: pt.Workload.Name, Cached: cached, Done: true})
		return nil
	})
	return int(hits.Load()), int(misses.Load()), err
}

// fanPoint is one grid point awaiting simulation, with its result-cache
// key already computed by the probe phase (empty without a cache) so the
// pass stores the result without rehashing the inputs.
type fanPoint struct {
	pt  Point
	key string
}

// fanPass is one scheduling unit of the batched fan-out: up to
// maxShardPoints of one workload's uncached grid points, whose sinks (one
// per point) are all fed by a single pass over the workload's capture. cost —
// the capture's events on the swept stream times the points — is the
// delivery work the pass will do.
type fanPass struct {
	pts  []fanPoint
	cost int64
}

// maxShardPoints bounds how many grid points one pass instantiates at
// once, capping the controller state a single fan-out pass holds live.
const maxShardPoints = 64

// runFanOut is the batched per-(workload, packet) scheduler: result-cache
// hits are served first without touching the trace engine, every missed
// workload is then captured (in parallel), and its remaining points are
// cut into passes of at most maxShardPoints, each replaying the capture
// once into all of its points' sinks (runPass). Passes start longest first
// and take workers from the parallelism budget in proportion to their share
// of the work still unstarted, so one heavy workload spreads over the
// cores the light ones leave idle instead of finishing alone. Point results
// land at their grid index and every point still gets its start/done
// progress pair, so ordering and reporting are indistinguishable from the
// per-point scheduler.
func runFanOut(ctx context.Context, s Space, pts []Point, techs []suite.Technique,
	mabs []core.Config, o options, tc *suite.TraceCache,
	report func(Progress), results []PointResult) (int, int, error) {
	// Phase 1: serve result-cache hits serially — a fully warm cache
	// finishes the sweep without a single capture or replay.
	hits := 0
	missed := make(map[string][]fanPoint, len(s.Workloads))
	for _, pt := range pts {
		if err := ctx.Err(); err != nil {
			return hits, 0, err
		}
		var key string
		if o.cache != nil {
			key = KeyWorkload(s.Domain, pt.Geometry, pt.Workload, s.PacketBytes, mabs)
			if pr, ok := o.cache.Get(key); ok && cachedPointValid(pr, pt, techs) {
				pr.Cached = true
				results[pt.Index] = *pr
				hits++
				report(Progress{Index: pt.Index, Total: len(pts), Geometry: pt.Geometry, Workload: pt.Workload.Name})
				report(Progress{Index: pt.Index, Total: len(pts), Geometry: pt.Geometry,
					Workload: pt.Workload.Name, Cached: true, Done: true})
				continue
			}
		}
		missed[pt.Workload.Name] = append(missed[pt.Workload.Name], fanPoint{pt: pt, key: key})
	}
	var ws []workloads.Workload
	for _, w := range s.Workloads {
		if len(missed[w.Name]) > 0 {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		return hits, 0, nil
	}

	// Phase 2: capture every missed workload up front, so each pass's cost
	// is known before any pass is sized.
	events := make([]int64, len(ws))
	if err := pool.Run(ctx, len(ws), o.parallelism, func(runCtx context.Context, i int) error {
		c, err := tc.Capture(runCtx, ws[i], s.PacketBytes)
		if err != nil {
			return err
		}
		events[i] = int64(c.Buf.NumDatas())
		if s.Domain == suite.Fetch {
			events[i] = int64(c.Buf.NumFetches())
		}
		return nil
	}); err != nil {
		return hits, 0, err
	}

	// Phase 3: one pass per (workload, chunk of at most maxShardPoints),
	// longest first. The order and the chunk boundaries depend only on the
	// grid, and each sink sees the whole stream at any width, so results
	// stay deterministic.
	var passes []fanPass
	var left int64 // cost of the passes not yet started
	for i, w := range ws {
		group := missed[w.Name]
		for _, r := range pool.Split(len(group), (len(group)+maxShardPoints-1)/maxShardPoints) {
			p := fanPass{pts: group[r[0]:r[1]], cost: events[i] * int64(r[1]-r[0])}
			passes = append(passes, p)
			left += p.cost
		}
	}
	sort.SliceStable(passes, func(a, b int) bool { return passes[a].cost > passes[b].cost })

	// A starting pass takes ceil(free × cost / left) workers — its share of
	// the unstarted work — capped by its sink count, one per point.
	share := func(i, free int) int {
		p := passes[i]
		k := 1
		if left > 0 {
			k = int((int64(free)*p.cost + left - 1) / left)
		}
		left -= p.cost
		return min(k, len(p.pts))
	}
	var misses atomic.Int64
	err := pool.RunBudget(ctx, len(passes), o.parallelism, share, func(runCtx context.Context, idx, width int) error {
		p := passes[idx]
		pp := make([]Point, len(p.pts))
		for i, fp := range p.pts {
			pp[i] = fp.pt
			report(Progress{Index: fp.pt.Index, Total: len(pts), Geometry: fp.pt.Geometry, Workload: fp.pt.Workload.Name})
		}
		prs, err := runPass(runCtx, s, tc, pp, techs, mabs, width)
		if err != nil {
			return err
		}
		for i, fp := range p.pts {
			if o.cache != nil {
				if err := o.cache.Put(fp.key, prs[i]); err != nil {
					return err
				}
			}
			results[fp.pt.Index] = *prs[i]
			misses.Add(1)
			report(Progress{Index: fp.pt.Index, Total: len(pts), Geometry: fp.pt.Geometry,
				Workload: fp.pt.Workload.Name, Done: true})
		}
		return nil
	})
	return hits, int(misses.Load()), err
}

// runPass simulates pts, all of one workload, in one batched fan-out pass
// over the workload's capture spread over up to width workers. Each point is one sink
// (suite.NewPoint): its baseline and every MAB size share one cache model.
// The sinks are built only now, so the memory a sweep holds live is
// bounded by the active passes, not the grid, and in point order: a wide
// pass splits them into contiguous groups, so each consumer owns a run of
// geometries, built side by side in memory no other consumer writes. Every
// sink receives the full stream regardless of order or width, so results
// are unaffected. The results come back in pts order.
func runPass(ctx context.Context, s Space, tc *suite.TraceCache, pts []Point,
	techs []suite.Technique, mabs []core.Config, width int) ([]*PointResult, error) {
	pairs := make([]trace.SinkPair, len(pts))
	res := make([][]suite.TechResult, len(pts))
	for i, pt := range pts {
		pairs[i], res[i] = suite.NewPoint(s.Domain, pt.Geometry, mabs)
	}
	c, err := tc.FanOutWidth(ctx, pts[0].Workload, s.PacketBytes, pairs, len(techs), len(pts), width)
	if err != nil {
		return nil, err
	}
	prs := make([]*PointResult, len(pts))
	for i, pt := range pts {
		prs[i] = assemblePoint(pt, techs, mabs, res[i], c.Cycles, c.Instrs)
	}
	return prs, nil
}

// assemblePoint prices one grid point's technique results, in techs order,
// into the PointResult the analysis layer and the result cache consume.
// Both schedulers build their points through it, so they produce
// byte-identical grids.
func assemblePoint(pt Point, techs []suite.Technique, mabs []core.Config,
	res []suite.TechResult, cycles, instrs uint64) *PointResult {
	pr := &PointResult{
		Geometry: pt.Geometry,
		Workload: pt.Workload.Name,
		Cycles:   cycles,
		Instrs:   instrs,
		Techs:    make([]TechOutcome, 0, len(techs)),
	}
	for i := range techs {
		out := TechOutcome{
			ID:    string(techs[i].ID),
			Stats: *res[i].Stats,
			Power: power.Compute(res[i].Stats, cycles, res[i].Model),
		}
		if i > 0 { // techs[0] is the baseline; the rest follow mabs order
			out.TagEntries = mabs[i-1].TagEntries
			out.SetEntries = mabs[i-1].SetEntries
		}
		pr.Techs = append(pr.Techs, out)
	}
	return pr
}

// PointMatches checks a stored result against the grid point it must
// answer for. The content hash already pins the inputs, but a tampered or
// hand-edited file can hold shape-valid JSON for the wrong point; anything
// that does not match the expected technique list degrades to a miss and
// is re-simulated rather than poisoning the analysis. Both explore.Run's
// result cache and the serve daemon's shared store gate their hits on it.
func PointMatches(pr *PointResult, pt Point, techs []suite.Technique) bool {
	return cachedPointValid(pr, pt, techs)
}

func cachedPointValid(pr *PointResult, pt Point, techs []suite.Technique) bool {
	if pr.Geometry != pt.Geometry || pr.Workload != pt.Workload.Name ||
		len(pr.Techs) != len(techs) {
		return false
	}
	for i, t := range techs {
		if pr.Techs[i].ID != string(t.ID) {
			return false
		}
	}
	return true
}

// runPoint serves one grid point from the cache or simulates and stores it.
func runPoint(ctx context.Context, s Space, pt Point, techs []suite.Technique,
	mabs []core.Config, c Cache, tc *suite.TraceCache) (*PointResult, bool, error) {
	key := KeyWorkload(s.Domain, pt.Geometry, pt.Workload, s.PacketBytes, mabs)
	if c != nil {
		if pr, ok := c.Get(key); ok && cachedPointValid(pr, pt, techs) {
			pr.Cached = true
			return pr, true, nil
		}
	}
	pr, err := simulatePoint(ctx, s, pt, techs, mabs, tc)
	if err != nil {
		return nil, false, err
	}
	if c != nil {
		if err := c.Put(key, pr); err != nil {
			return nil, false, err
		}
	}
	return pr, false, nil
}

// SimulatePoint executes one grid point of a normalized Space, with no
// result cache attached — the serve daemon's unit of work: the daemon does
// its own store probing and in-flight deduplication per point and calls
// this only for points that must actually run. With a trace cache the point
// is a one-point fan-out pass over the workload's shared capture (the pass
// explore.Run's scheduler runs), so however many daemon clients sweep a
// workload, it executes at most once per (workload, packet); without one it
// executes live. Results are bit-identical to explore.Run's.
func SimulatePoint(ctx context.Context, s Space, pt Point, tc *suite.TraceCache) (*PointResult, error) {
	techs, mabs := s.techniques(), s.MABs()
	if tc == nil {
		return simulatePoint(ctx, s, pt, techs, mabs, nil)
	}
	prs, err := runPass(ctx, s, tc, []Point{pt}, techs, mabs, 1)
	if err != nil {
		return nil, err
	}
	return prs[0], nil
}

// simulatePoint is one suite pass over pt's workload with the space's full
// technique list attached as independent controllers — live, or replayed
// per sink from tc — extracted into the PointResult shape the result cache
// and analysis layer consume. It is the per-point scheduler's path and the
// oracle the grouped fan-out pass is checked against.
func simulatePoint(ctx context.Context, s Space, pt Point, techs []suite.Technique,
	mabs []core.Config, tc *suite.TraceCache) (*PointResult, error) {
	runOpts := []suite.Option{
		suite.WithWorkloads(pt.Workload),
		suite.WithTechniques(techs...),
		suite.WithGeometry(pt.Geometry),
		suite.WithPacketBytes(s.PacketBytes),
		suite.WithParallelism(1),
		suite.WithBatchReplay(false),
	}
	if tc != nil {
		runOpts = append(runOpts, suite.WithTraceCache(tc))
	}
	r, err := suite.Run(ctx, runOpts...)
	if err != nil {
		return nil, err
	}
	b := r.Benchmarks[0]
	byID := b.D
	if s.Domain == suite.Fetch {
		byID = b.I
	}
	res := make([]suite.TechResult, len(techs))
	for i, t := range techs {
		tr, ok := byID[t.ID]
		if !ok {
			return nil, fmt.Errorf("explore: technique %q missing from results", t.ID)
		}
		res[i] = tr
	}
	return assemblePoint(pt, techs, mabs, res, b.Cycles, b.Instrs), nil
}
