package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"waymemo/internal/baseline"
	"waymemo/internal/cache"
	"waymemo/internal/core"
	"waymemo/internal/experiments"
	"waymemo/internal/explore"
	"waymemo/internal/power"
	"waymemo/internal/serve"
	"waymemo/internal/suite"
	"waymemo/internal/trace"
	"waymemo/internal/workloads"
)

// span is one timed call into a layer. Spans of one run share Run; Parent
// is 0 for the root. An aggregate span (Calls > 0) stands for that many
// short calls, such as replay batches delivered to one kind of sink, whose
// summed duration is End-Start.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Calls  int64   `json:"calls,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps a run's spans in memory until the run ends.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	run    string
	spans  []span
}

func (tr *tracer) now() float64 { return time.Since(tr.origin).Seconds() }

// do records a span around fn, which receives the span's ID for children.
func (tr *tracer) do(parent int, name, layer string, fn func(id int) error) error {
	tr.mu.Lock()
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Run: tr.run, Name: name, Layer: layer, Start: tr.now()})
	tr.mu.Unlock()
	err := fn(id)
	tr.mu.Lock()
	tr.spans[id-1].End = tr.now()
	tr.mu.Unlock()
	return err
}

// aggregate records calls short calls of d total under parent.
func (tr *tracer) aggregate(parent int, name, layer string, d time.Duration, calls int64) {
	if calls == 0 {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	start := tr.spans[parent-1].Start
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Run: tr.run, Name: name,
		Layer: layer, Start: start, End: start + d.Seconds(), Calls: calls})
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that child spans cover (the union of ordinary children, plus
// the summed time of aggregate children).
func (tr *tracer) selfTimes() map[int]float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range tr.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[int]float64{}
	for _, s := range tr.spans {
		var ivs [][2]float64
		covered := 0.0
		for _, k := range kids[s.ID] {
			if k.Calls > 0 {
				covered += k.dur()
			} else {
				ivs = append(ivs, [2]float64{k.Start, k.End})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		end := -1.0
		for _, iv := range ivs {
			if iv[0] > end {
				covered += iv[1] - iv[0]
				end = iv[1]
			} else if iv[1] > end {
				covered += iv[1] - end
				end = iv[1]
			}
		}
		out[s.ID] = max(s.dur()-covered, 0)
	}
	return out
}

// layers is the order of the per-layer table.
var layers = []string{"asm", "sim", "trace", "suite", "core", "baseline", "power", "explore", "serve"}

// layerTable sums self time by layer; the self time of the harness's own
// spans (layer "bench": the root and the probe phase) is the unattributed
// remainder.
func (tr *tracer) layerTable() (self map[string]float64, wall float64) {
	self = map[string]float64{}
	st := tr.selfTimes()
	for _, s := range tr.spans {
		if s.Parent == 0 {
			wall += s.dur()
		}
		layer := s.Layer
		if layer == "bench" {
			layer = "unattributed"
		}
		self[layer] += st[s.ID]
	}
	return self, wall
}

// writeSpans writes the spans and host facts as JSON lines.
func (tr *tracer) writeSpans(path string, h host) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	enc.Encode(map[string]any{"run": tr.run, "host": h})
	for _, s := range tr.spans {
		enc.Encode(s)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedSinks wraps technique sinks so that their batch calls are timed and
// charged to the sink's layer, separating controller work from the replay
// pass that feeds it.
type timedSinks struct {
	ns, calls [2]atomic.Int64 // [0] core, [1] baseline
}

type timedData struct {
	s     trace.DataBatchSink
	layer int
	acc   *timedSinks
}

func (t timedData) OnData(ev trace.DataEvent) { t.OnDataBatch([]trace.DataEvent{ev}) }

func (t timedData) OnDataBatch(evs []trace.DataEvent) {
	t0 := time.Now()
	t.s.OnDataBatch(evs)
	t.acc.ns[t.layer].Add(int64(time.Since(t0)))
	t.acc.calls[t.layer].Add(1)
}

type timedFetch struct {
	s     trace.FetchBatchSink
	layer int
	acc   *timedSinks
}

func (t timedFetch) OnFetch(ev trace.FetchEvent) { t.OnFetchBatch([]trace.FetchEvent{ev}) }

func (t timedFetch) OnFetchBatch(evs []trace.FetchEvent) {
	t0 := time.Now()
	t.s.OnFetchBatch(evs)
	t.acc.ns[t.layer].Add(int64(time.Since(t0)))
	t.acc.calls[t.layer].Add(1)
}

// wrap returns the pair with each sink timed under the technique's layer:
// core for the way-memoization controllers, baseline for the others.
func (acc *timedSinks) wrap(id suite.ID, inst suite.Instance) trace.SinkPair {
	layer := 1
	if strings.HasPrefix(string(id), "mab-") {
		layer = 0
	}
	var p trace.SinkPair
	if inst.Data != nil {
		p.Data = timedData{trace.BatchDataSink(inst.Data), layer, acc}
	}
	if inst.Fetch != nil {
		p.Fetch = timedFetch{trace.BatchFetchSink(inst.Fetch), layer, acc}
	}
	return p
}

func (acc *timedSinks) record(tr *tracer, parent int) {
	tr.aggregate(parent, "core.replay", "core", time.Duration(acc.ns[0].Load()), acc.calls[0].Load())
	tr.aggregate(parent, "baseline.replay", "baseline", time.Duration(acc.ns[1].Load()), acc.calls[1].Load())
}

// timedCache is explore's result cache with every Get and Put timed.
type timedCache struct {
	*explore.DirCache
	mu       sync.Mutex
	get, put []float64 // ms
}

func (c *timedCache) Get(key string) (*explore.PointResult, bool) {
	t0 := time.Now()
	pr, ok := c.DirCache.Get(key)
	c.note(&c.get, t0)
	return pr, ok
}

func (c *timedCache) Put(key string, pr *explore.PointResult) error {
	t0 := time.Now()
	err := c.DirCache.Put(key, pr)
	c.note(&c.put, t0)
	return err
}

func (c *timedCache) note(dst *[]float64, t0 time.Time) {
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	c.mu.Lock()
	*dst = append(*dst, ms)
	c.mu.Unlock()
}

// tracedPlan is what one workload's traced run sweeps. The probes run on
// the explore grid's kernels (the fan-out probe on its first kernel, over
// all its geometries), the explore phase sweeps that grid, and the serve
// phase runs it as client A's grid beside client B's overlap grid.
type tracedPlan struct {
	explore, overlap grid
	exactKey         string // goldens.json key of the exact counts
	queries          int
}

func planFor(e *env) tracedPlan {
	small := e.cfg.small
	p := tracedPlan{explore: sweepGrid(small), overlap: overlapGrid(small), exactKey: e.cfg.workload,
		queries: 2 * serveQueries(small)}
	if small {
		p.exactKey += "/small"
	}
	if e.cfg.workload == "report" {
		p.explore, p.overlap = reportGrid(small), reportOverlapGrid(small)
	}
	return p
}

// tracedRun is the per-layer run: one untraced reference of the workload's
// main path on wmx processes, then, under the span recorder, the layer
// probes on the workload's kernels, the explore phase and the serve phase
// (and, for report, the report itself) called in-process.
func tracedRun(ctx context.Context, e *env, t *tally, h host) (values, error) {
	plan := planFor(e)
	v := values{}

	// Untraced reference of the workload's headline wall time.
	refVals, err := untracedOnce(ctx, e, t)
	if err != nil {
		return nil, err
	}

	tr := &tracer{origin: time.Now(), run: fmt.Sprintf("%s-seed%d-%d", e.cfg.workload, e.cfg.seed, time.Now().Unix())}
	var mainWall float64
	err = tr.do(0, "run", "bench", func(root int) error {
		if err := probes(ctx, e, t, tr, root, plan, v); err != nil {
			return err
		}
		if e.cfg.workload == "report" {
			t0 := time.Now()
			if err := tr.doProfiled(root, "suite.report", "suite", func(int) error {
				return inProcReport(ctx, e, t)
			}); err != nil {
				return err
			}
			mainWall = since(t0)
		}
		exWall, err := explorePhase(ctx, e, t, tr, root, plan, v)
		if err != nil {
			return err
		}
		if e.cfg.workload == "sweep-cold" {
			mainWall = exWall
		}
		coldS, err := servePhase(ctx, e, t, tr, root, plan, v)
		if e.cfg.workload == "serve-mixed" {
			mainWall = coldS
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	self, wall := tr.layerTable()
	for _, l := range layers {
		v[l+".self_s"] = self[l]
	}
	v["bench.unattributed_frac"] = self["unattributed"] / wall
	v["bench.tracing_overhead_frac"] = (mainWall - refVals["wall_s"]) / refVals["wall_s"]
	printTable(e, self, wall, v)

	spansPath := filepath.Join(e.cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", e.cfg.workload, e.cfg.seed))
	if err := tr.writeSpans(spansPath, h); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), spansPath)

	e.gold.checkExact(t, plan.exactKey, v, "sim.instrs", "trace.events", "suite.captures",
		"suite.replays", "suite.sinks_per_pass", "serve.simulations")
	return v, nil
}

// untracedOnce runs one untraced iteration of the workload on wmx
// processes.
func untracedOnce(ctx context.Context, e *env, t *tally) (values, error) {
	sub := *e
	sub.cfg.seconds = 1e-9
	sub.once = true
	return untracedRun(ctx, &sub, t)
}

// probes calls each layer's public functions directly on the workload's
// kernels.
func probes(ctx context.Context, e *env, t *tally, tr *tracer, root int, plan tracedPlan, v values) error {
	return tr.do(root, "probes", "bench", func(p int) error {
		var buildS, execS, captureS, decodeS, writeS, readS float64
		var dctlS, ictlS, a4S float64
		var instrs, events, bytesEnc, datas, fetches float64
		for _, name := range plan.explore.Kernels {
			w, err := workloads.ByName(name)
			if err != nil {
				return err
			}
			timed := func(name, layer string, fn func() error) (float64, error) {
				var d float64
				err := tr.do(p, name, layer, func(int) error {
					t0 := time.Now()
					err := fn()
					d = since(t0)
					return err
				})
				return d, err
			}
			d, err := timed("asm.build", "asm", func() error { _, err := w.Build(); return err })
			if err != nil {
				return err
			}
			buildS += d
			var cpuInstrs uint64
			d, err = timed("sim.exec", "sim", func() error {
				c, err := workloads.RunPacketContext(ctx, w,
					trace.FetchFunc(func(trace.FetchEvent) {}), trace.DataFunc(func(trace.DataEvent) {}), 0)
				if err == nil {
					cpuInstrs = c.Instrs
				}
				return err
			})
			if err != nil {
				return err
			}
			execS += d
			instrs += float64(cpuInstrs)
			buf := &trace.Buffer{}
			d, err = timed("trace.capture", "trace", func() error {
				_, err := workloads.RunPacketContext(ctx, w, buf, buf, 0)
				return err
			})
			if err != nil {
				return err
			}
			captureS += d
			events += float64(buf.Len())
			bytesEnc += float64(buf.EncodedBytes())
			nop := nopSink{}
			d, err = timed("trace.decode", "trace", func() error {
				return buf.ReplayAll(ctx, []trace.SinkPair{{Fetch: nop, Data: nop}})
			})
			if err != nil {
				return err
			}
			decodeS += d
			var spill bytes.Buffer
			d, err = timed("trace.spill_write", "trace", func() error { _, err := buf.WriteTo(&spill); return err })
			if err != nil {
				return err
			}
			writeS += d
			d, err = timed("trace.spill_read", "trace", func() error {
				back, err := trace.ReadBuffer(bytes.NewReader(spill.Bytes()))
				if err == nil && back.Len() != buf.Len() {
					err = fmt.Errorf("spill of %s read back %d of %d events", name, back.Len(), buf.Len())
				}
				return err
			})
			if err != nil {
				return err
			}
			readS += d

			var dev []trace.DataEvent
			var fev []trace.FetchEvent
			if _, err := timed("trace.materialize", "trace", func() error {
				dev, fev = buf.Datas(), buf.Fetches()
				return nil
			}); err != nil {
				return err
			}
			datas += float64(len(dev))
			fetches += float64(len(fev))
			dctl := core.NewDController(cache.FRV32K, core.Config{TagEntries: 2, SetEntries: 8})
			d, _ = timed("core.dctl", "core", func() error { feed(dev, dctl.OnDataBatch); return nil })
			dctlS += d
			ictl := core.NewIController(cache.FRV32K, core.Config{TagEntries: 2, SetEntries: 16})
			d, _ = timed("core.ictl", "core", func() error { feed(fev, ictl.OnFetchBatch); return nil })
			ictlS += d
			a4 := baseline.NewApproach4I(cache.FRV32K)
			d, _ = timed("baseline.i", "baseline", func() error { feed(fev, a4.OnFetchBatch); return nil })
			a4S += d
		}
		v["asm.build_ms"] = buildS * 1000
		v["sim.instrs"] = instrs
		v["sim.exec_s"] = execS
		v["sim.mips"] = instrs / execS / 1e6
		v["trace.events"] = events
		v["trace.bytes_per_event"] = bytesEnc / events
		v["trace.capture_s"] = captureS - execS
		v["trace.decode_mevents_per_s"] = events / decodeS / 1e6
		v["trace.spill_write_ms"] = writeS * 1000
		v["trace.spill_read_ms"] = readS * 1000
		v["core.dctl_mevents_per_s"] = datas / dctlS / 1e6
		v["core.ictl_mevents_per_s"] = fetches / ictlS / 1e6
		v["baseline.i_mevents_per_s"] = fetches / a4S / 1e6

		if err := powerProbe(tr, p, v); err != nil {
			return err
		}
		return fanOutProbe(ctx, tr, p, plan, v)
	})
}

// nopSink swallows replayed batches.
type nopSink struct{}

func (nopSink) OnFetch(trace.FetchEvent)        {}
func (nopSink) OnData(trace.DataEvent)          {}
func (nopSink) OnFetchBatch([]trace.FetchEvent) {}
func (nopSink) OnDataBatch([]trace.DataEvent)   {}

// feed delivers events in replay-sized batches.
func feed[E any](evs []E, sink func([]E)) {
	const batch = 4096
	for i := 0; i < len(evs); i += batch {
		sink(evs[i:min(i+batch, len(evs))])
	}
}

// powerSink keeps power.Compute's result live.
var powerSink float64

// powerProbe times power.Compute on the paper's D-cache MAB technique.
func powerProbe(tr *tracer, parent int, v values) error {
	const n = 200_000
	inst := suite.MustLookup(suite.Data, suite.DMAB).New(cache.FRV32K)
	inst.Stats.Accesses, inst.Stats.Hits, inst.Stats.TagReads, inst.Stats.WayReads = 1e6, 99e4, 5e5, 1e6
	return tr.do(parent, "power.compute", "power", func(id int) error {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			powerSink += power.Compute(inst.Stats, uint64(2e6+i), inst.Model).TotalMW()
		}
		v["power.compute_ns"] = float64(time.Since(t0).Nanoseconds()) / n
		return nil
	})
}

// fanOutProbe replays one kernel's capture through suite.TraceCache.FanOut
// into every technique sink of the explore grid's geometries, the shape of
// one explore shard, with the sinks timed by layer.
func fanOutProbe(ctx context.Context, tr *tracer, parent int, plan tracedPlan, v values) error {
	g := plan.explore
	w, err := workloads.ByName(g.Kernels[0])
	if err != nil {
		return err
	}
	sp, err := grid{g.Sets, g.Ways, g.Line, g.Kernels[:1]}.request().Space()
	if err != nil {
		return err
	}
	tc := suite.NewTraceCache()
	if err := tr.do(parent, "suite.capture", "trace", func(int) error {
		_, err := tc.Capture(ctx, w, 0)
		return err
	}); err != nil {
		return err
	}
	var acc timedSinks
	var pairs []trace.SinkPair
	var insts []suite.Instance
	for _, geo := range sp.Geometries() {
		for _, tech := range sp.Techniques() {
			inst := tech.New(geo)
			insts = append(insts, inst)
			pairs = append(pairs, acc.wrap(tech.ID, inst))
		}
	}
	var c suite.Capture
	err = tr.do(parent, "suite.fanout", "suite", func(id int) error {
		t0 := time.Now()
		var err error
		c, err = tc.FanOut(ctx, w, 0, pairs, len(sp.Geometries()))
		v["suite.fanout_deliveries_per_s"] = float64(tc.Stats().FanOutDeliveries) / since(t0)
		acc.record(tr, id)
		return err
	})
	if err != nil {
		return err
	}
	return tr.do(parent, "power.assemble", "power", func(int) error {
		for _, inst := range insts {
			powerSink += power.Compute(inst.Stats, c.Cycles, inst.Model).TotalMW()
		}
		return nil
	})
}

// inProcReport composes the report in-process the way `wmx -exp report
// -j 2` does and checks it against the golden.
func inProcReport(ctx context.Context, e *env, t *tally) error {
	base := []suite.Option{suite.WithParallelism(2)}
	common := append(base[:len(base):len(base)], suite.WithTraceCache(suite.NewTraceCache()))
	results, err := suite.Run(ctx, common...)
	if err != nil {
		return err
	}
	ablD, err := experiments.AblationD(ctx, common...)
	if err != nil {
		return err
	}
	ablI, err := experiments.AblationI(ctx, common...)
	if err != nil {
		return err
	}
	cons, err := experiments.AblationConsistency(ctx, common...)
	if err != nil {
		return err
	}
	packet, err := experiments.AblationPacket(ctx, base...)
	if err != nil {
		return err
	}
	h := sha256.New()
	experiments.WriteMarkdown(h, results, ablD, ablI, cons, packet)
	e.gold.checkReport(t, hex.EncodeToString(h.Sum(nil)))
	return nil
}

// explorePhase runs explore.Run in-process over the plan's grid with a
// timed result cache and progress stamps, checks the grid, and derives the
// shard shape. It returns the sweep's wall time.
func explorePhase(ctx context.Context, e *env, t *tally, tr *tracer, root int, plan tracedPlan, v values) (float64, error) {
	g := plan.explore.shuffled(e.rng)
	sp, err := g.request().Space()
	if err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(e.work, "explore-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	dc, err := explore.NewDirCache(dir)
	if err != nil {
		return 0, err
	}
	tc := &timedCache{DirCache: dc}
	starts, dones := map[int]float64{}, map[int]float64{}
	names := map[int]string{}
	var res *explore.Grid
	var wall float64
	err = tr.doProfiled(root, "explore.run", "explore", func(id int) error {
		t0 := time.Now()
		var err error
		res, err = explore.Run(ctx, sp, explore.WithParallelism(2), explore.WithCache(tc),
			explore.WithProgress(func(p explore.Progress) {
				if p.Done {
					dones[p.Index] = since(t0)
				} else {
					starts[p.Index] = since(t0)
					names[p.Index] = p.Workload
				}
			}))
		wall = since(t0)
		tr.aggregate(id, "explore.cache_get", "explore", msDuration(tc.get), int64(len(tc.get)))
		tr.aggregate(id, "explore.cache_put", "explore", msDuration(tc.put), int64(len(tc.put)))
		return err
	})
	if err != nil {
		return 0, err
	}
	e.gold.checkGrid(t, "explore", res.Points, g.labels())
	v["explore.cache_get_ms"] = median(tc.get)
	v["explore.cache_put_ms"] = median(tc.put)
	v["suite.captures"] = float64(res.Traces.Captures)
	v["suite.replays"] = float64(res.Traces.Replays)
	v["suite.sinks_per_pass"] = res.Traces.SinksPerPass()
	v["explore.shards"] = float64(res.Traces.FanOutPasses)

	// A shard's points are all one workload's and are announced together
	// when the shard starts, so points whose starts lie within 1ms of each
	// other form one shard; it is busy from that start to its last done.
	idx := make([]int, 0, len(starts))
	for i := range starts {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool { return starts[idx[a]] < starts[idx[b]] })
	type shard struct{ start, end float64 }
	open := map[string]*shard{}
	var shards []*shard
	for _, i := range idx {
		s := open[names[i]]
		if s == nil || starts[i]-s.start > 1e-3 {
			s = &shard{start: starts[i]}
			open[names[i]] = s
			shards = append(shards, s)
		}
		s.end = max(s.end, dones[i])
	}
	busy, longest := 0.0, 0.0
	for _, s := range shards {
		busy += s.end - s.start
		longest = max(longest, s.end-s.start)
	}
	v["explore.busy_frac"] = busy / (wall * 2)
	v["explore.shard_imbalance"] = longest / (busy / float64(len(shards)))
	fmt.Fprintf(os.Stderr, "perfbench: explore %d points in %.2fs: %d shards, %.2f of 2 cores busy\n",
		len(res.Points), wall, len(shards), busy/wall)
	return wall, nil
}

func msDuration(ms []float64) time.Duration {
	total := 0.0
	for _, x := range ms {
		total += x
	}
	return time.Duration(total * 1e6)
}

// servePhase runs the serve-mixed scenario against in-process daemons,
// then times the store's own calls on a copy of the store it left. It
// returns client A's cold sweep time.
func servePhase(ctx context.Context, e *env, t *tally, tr *tracer, root int, plan tracedPlan, v values) (float64, error) {
	var out *serveOutcome
	err := tr.doProfiled(root, "serve.scenario", "serve", func(id int) error {
		var err error
		out, err = serveScenario(ctx, e, t, inprocBooter(tr, id), plan.explore, plan.overlap, plan.queries)
		return err
	})
	if err != nil {
		return 0, err
	}
	v["serve.submit_ms"] = out.submitMS
	v["serve.first_done_s"] = out.firstDoneS
	v["serve.point_p50_ms"] = quantile(out.pointGaps, 0.5)
	v["serve.point_p90_ms"] = quantile(out.pointGaps, 0.9)
	v["serve.simulations"] = float64(out.cold.Simulations)
	v["serve.store_hits"] = float64(out.cold.StoreHits)
	v["serve.dedup_joins"] = float64(out.cold.DedupJoins)
	v["serve.dedup_rate"] = float64(out.cold.RequestedPoints-out.cold.Simulations) / float64(out.cold.RequestedPoints)
	v["serve.journal_records"] = float64(out.cold.JournalRecords)
	v["serve.shed"] = float64(out.shed)
	v["serve.warm_sweep_ms"] = median(out.warmMS)
	v["serve.query_p50_ms"] = quantile(out.queryMS, 0.5)
	v["serve.query_p90_ms"] = quantile(out.queryMS, 0.9)
	return out.coldS, tr.do(root, "serve.store", "serve", func(int) error {
		return storeProbe(e, out, v)
	})
}

// storeProbe opens a copy of the scenario's store with serve.OpenStore and
// times Get and Put of every grid-A point.
func storeProbe(e *env, out *serveOutcome, v values) error {
	cp, err := os.MkdirTemp(e.work, "storecopy-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cp)
	if err := os.CopyFS(cp, os.DirFS(out.store)); err != nil {
		return err
	}
	t0 := time.Now()
	st, err := serve.OpenStore(cp, 0)
	if err != nil {
		return err
	}
	v["serve.store_open_ms"] = float64(time.Since(t0).Microseconds()) / 1000
	sp := out.spaceA
	var gets, puts []float64
	for _, pt := range sp.Points() {
		key := explore.KeyWorkload(sp.Domain, pt.Geometry, pt.Workload, sp.PacketBytes, sp.MABs())
		t0 := time.Now()
		pr, ok := st.Get(key)
		gets = append(gets, float64(time.Since(t0).Nanoseconds())/1e3)
		if !ok {
			return fmt.Errorf("store copy lacks point %s", key)
		}
		t0 = time.Now()
		if err := st.Put(key, pr); err != nil {
			return err
		}
		puts = append(puts, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	v["serve.store_get_us"] = median(gets)
	v["serve.store_put_ms"] = median(puts)
	return nil
}

// printTable prints the per-layer self-time split to stderr.
func printTable(e *env, self map[string]float64, wall float64, v values) {
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer self time, workload %s (traced run, %.2fs wall)\n", e.cfg.workload, wall)
	fmt.Fprintf(&b, "  %-13s %9s %7s\n", "layer", "self_s", "share")
	for _, l := range append(append([]string(nil), layers...), "unattributed") {
		fmt.Fprintf(&b, "  %-13s %9.3f %6.1f%%\n", l, self[l], 100*self[l]/wall)
	}
	fmt.Fprintf(&b, "  explore: %.0f shards, %.2f of 2 cores busy, imbalance %.2f\n",
		v["explore.shards"], 2*v["explore.busy_frac"], v["explore.shard_imbalance"])
	fmt.Fprintf(&b, "  tracing overhead %+.1f%% of the untraced wall time\n", 100*v["bench.tracing_overhead_frac"])
	fmt.Fprint(os.Stderr, b.String())
}
