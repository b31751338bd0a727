// Package experiments regenerates every table and figure of the paper's
// evaluation section. The execution machinery lives in internal/suite (a
// technique registry plus a parallel runner); this package is the rendering
// layer that knows which technique goes in which figure, plus the ablation
// studies beyond the published results.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"

	"waymemo/internal/cache"
	"waymemo/internal/pool"
	"waymemo/internal/suite"
	"waymemo/internal/workloads"
)

// Technique keys of the standard suite, re-exported from internal/suite for
// the rendering lists below.
const (
	DOrig   = suite.DOrig
	DSetBuf = suite.DSetBuf
	DMAB    = suite.DMAB

	IOrig  = suite.IOrig
	IA4    = suite.IA4
	IMAB8  = suite.IMAB8
	IMAB16 = suite.IMAB16
	IMAB32 = suite.IMAB32
)

// DTechs and ITechs list the technique keys in figure order. This is the
// rendering list: a newly registered technique shows up in the figures by
// adding its key here — no runner or figure-code changes.
var (
	DTechs = []suite.ID{DOrig, DSetBuf, DMAB}
	ITechs = []suite.ID{IA4, IMAB8, IMAB16, IMAB32}
)

// Geometry is the cache configuration of the paper (32KB, 2-way, 512 sets,
// 32-byte lines, for both I and D).
var Geometry = cache.FRV32K

// Results and BenchResult alias the suite types so existing figure callers
// keep compiling.
type (
	Results     = suite.Results
	BenchResult = suite.BenchResult
)

// Report holds every table of EXPERIMENTS.md.
type Report struct {
	Results    *Results // Figures 4-8
	AblD, AblI []AblationRow
	Cons       []ConsistencyRow
	Packet     []PacketRow
}

// WriteMarkdown emits the report as EXPERIMENTS.md.
func (r *Report) WriteMarkdown(w io.Writer) {
	WriteMarkdown(w, r.Results, r.AblD, r.AblI, r.Cons, r.Packet)
}

// unionTechniques merges technique lists by (domain, ID) in first-seen
// order. Registered references merge; an ad hoc technique sharing its key
// with any other entry is an error, not a silent merge of two studies' rows.
func unionTechniques(lists ...[]suite.Technique) ([]suite.Technique, error) {
	type key struct {
		d  suite.Domain
		id suite.ID
	}
	adhoc := map[key]bool{}
	var out []suite.Technique
	for _, l := range lists {
		for _, t := range l {
			k := key{t.Domain, t.ID}
			switch was, seen := adhoc[k]; {
			case !seen:
				adhoc[k] = t.New != nil
				out = append(out, t)
			case was || t.New != nil:
				return nil, fmt.Errorf("experiments: technique %s/%q defined by more than one study", t.Domain, t.ID)
			}
		}
	}
	return resolve(out), nil
}

// reportTechniques is what a default-packet report task attaches: the
// registry's techniques (Figures 4-8) and those of the D, I and consistency
// studies.
func reportTechniques() ([]suite.Technique, error) {
	var std []suite.Technique
	for _, t := range suite.Techniques() {
		std = append(std, registered(t.Domain, t.ID))
	}
	return unionTechniques(std, ablationDTechs(), ablationITechs(), consistencyTechs())
}

// RunReport computes every table of the report in one pool of independent
// tasks, one per (kernel, packet width), each a live suite.Run of one kernel
// with every technique that needs the pair attached: at the kernel's
// default packet the union of reportTechniques, at the packet study's other
// widths packetTechs. The default-packet tasks go first, being the
// heaviest. Each table is aggregated from the shared per-kernel results
// exactly as its study's function aggregates it, so the report equals one
// composed study by study, yet no kernel executes twice at one width and,
// without a trace cache in opts, no capture is held for a replay.
//
// ws selects the kernels (nil: workloads.All()); par bounds concurrent
// tasks (<= 0: GOMAXPROCS); done, if non-nil, is called serially with each
// finished task's label. opts (a trace cache, say) pass through to every
// task's suite.Run. If ctx ends first, RunReport returns ctx.Err().
func RunReport(ctx context.Context, ws []workloads.Workload, par int, done func(task string), opts ...suite.Option) (*Report, error) {
	if ws == nil {
		ws = workloads.All()
	}
	techs, err := reportTechniques()
	if err != nil {
		return nil, err
	}
	// results[s][wi] is kernel wi at packet slots[s], 0 being its default.
	type task struct{ s, wi int }
	slots := append([]uint32{0}, packetWidths...)
	results := make([][]BenchResult, len(slots))
	var tasks []task
	for s, pb := range slots {
		results[s] = make([]BenchResult, len(ws))
		for wi, w := range ws {
			if s == 0 || pb != w.DefaultPacketBytes() {
				tasks = append(tasks, task{s, wi})
			}
		}
	}
	base := append([]suite.Option{suite.WithGeometry(Geometry)}, opts...)
	var doneMu sync.Mutex
	err = pool.Run(ctx, len(tasks), par, func(ctx context.Context, i int) error {
		t := tasks[i]
		w, pb, taskTechs, label := ws[t.wi], slots[t.s], techs, ws[t.wi].Name
		if pb != 0 {
			taskTechs, label = resolve(packetTechs()), fmt.Sprintf("%s (%d-byte packets)", w.Name, pb)
		}
		r, err := suite.Run(ctx, append(base[:len(base):len(base)], suite.WithWorkloads(w),
			suite.WithTechniques(taskTechs...), suite.WithPacketBytes(pb), suite.WithParallelism(1))...)
		if err != nil {
			return err
		}
		results[t.s][t.wi] = r.Benchmarks[0]
		if done != nil {
			doneMu.Lock()
			defer doneMu.Unlock()
			done(label)
		}
		return nil
	})
	if ctx.Err() != nil {
		return nil, ctx.Err()
	} else if err != nil {
		return nil, err
	}
	r := &Results{Geometry: Geometry, Benchmarks: results[0]}
	rep := &Report{Results: r, AblD: aggregateAblation(r, ablationDTechs()),
		AblI: aggregateAblation(r, ablationITechs()), Cons: aggregateConsistency(r, consistencyTechs())}
	for s, pb := range packetWidths {
		for wi, w := range ws {
			if pb == w.DefaultPacketBytes() {
				results[s+1][wi] = results[0][wi]
			}
		}
		rep.Packet = append(rep.Packet, packetRow(pb, &Results{Geometry: Geometry, Benchmarks: results[s+1]}))
	}
	return rep, nil
}
