package experiments

import (
	"context"
	"fmt"

	"waymemo/internal/baseline"
	"waymemo/internal/cache"
	"waymemo/internal/cacti"
	"waymemo/internal/core"
	"waymemo/internal/power"
	"waymemo/internal/report"
	"waymemo/internal/suite"
	"waymemo/internal/synth"
	"waymemo/internal/trace"
)

// This file holds the studies beyond the paper's published figures: the
// related-work techniques of its Section 2 run on the same streams, the
// MAB+line-buffer combination the conclusion announces, the consistency
// policy comparison motivated by the §3.3 analysis (see ARCHITECTURE.md,
// "Known deviations from the paper"), and a
// fetch-packet-width sensitivity study.
//
// Each study is a technique list, whose one-off configurations are ad hoc
// suite.Technique values (no registration needed), plus an aggregate over
// *suite.Results. The Ablation* functions run one study through suite.Run;
// RunReport feeds every study from one shared execution per kernel.

// AblationRow is one technique's aggregate over the seven benchmarks.
type AblationRow struct {
	Tech         string
	Tags         float64 // tag reads per access (average over benchmarks)
	Ways         float64
	PowerMW      float64 // average power
	CyclePenalty float64 // extra cycles per base cycle (performance loss)
	BufHitRate   float64
}

// dTech and iTech build one-off techniques for the studies below.
func dTech(id suite.ID, f suite.Factory) suite.Technique {
	return suite.Technique{ID: id, Domain: suite.Data, New: f}
}

func iTech(id suite.ID, f suite.Factory) suite.Technique {
	return suite.Technique{ID: id, Domain: suite.Fetch, New: f}
}

// registered names a default-registry technique by key. Its nil factory
// marks it as shared: several studies may list it, whereas an ad hoc
// technique belongs to one study (see unionTechniques).
func registered(d suite.Domain, id suite.ID) suite.Technique {
	return suite.Technique{ID: id, Domain: d}
}

// resolve replaces the registered references in techs, in place.
func resolve(techs []suite.Technique) []suite.Technique {
	for i, t := range techs {
		if t.New == nil {
			techs[i] = suite.MustLookup(t.Domain, t.ID)
		}
	}
	return techs
}

// runStudy runs one study's techniques over the suite on the paper's
// geometry (extra options pass through) and aggregates its table.
func runStudy[R any](ctx context.Context, techs []suite.Technique, opts []suite.Option,
	agg func(*suite.Results, []suite.Technique) []R) ([]R, error) {
	runOpts := append([]suite.Option{suite.WithGeometry(Geometry)}, opts...)
	r, err := suite.Run(ctx, append(runOpts, suite.WithTechniques(resolve(techs)...))...)
	if err != nil {
		return nil, err
	}
	return agg(r, techs), nil
}

// lineBufferEnergies is the single-entry line buffer shared by the
// line-buffer baseline and the MAB+line-buffer combination.
func lineBufferEnergies(geo cache.Config) cacti.BufferEnergies {
	return cacti.LineBuffer(cacti.Tech130, 1, geo.LineBytes, geo.TagBits())
}

// AblationD compares all data-cache techniques, including the related work
// of Section 2 and the paper's announced line-buffer combination. Extra
// suite options (parallelism, progress, ...) pass through to the runner.
func AblationD(ctx context.Context, opts ...suite.Option) ([]AblationRow, error) {
	return runStudy(ctx, ablationDTechs(), opts, aggregateAblation)
}

// ablationDTechs lists the D-cache study's techniques in table order.
func ablationDTechs() []suite.Technique {
	l0geo := cache.Config{Sets: 8, Ways: 1, LineBytes: 32} // 256B filter cache
	return []suite.Technique{
		registered(suite.Data, DOrig),
		dTech("two-phase[8]", func(geo cache.Config) suite.Instance {
			c := baseline.NewTwoPhaseD(geo)
			return suite.Instance{Data: c, Stats: c.Stats, Model: suite.ArrayModel(geo)}
		}),
		dTech("line-buffer[13]", func(geo cache.Config) suite.Instance {
			c := baseline.NewLineBufferD(geo)
			m := suite.ArrayModel(geo)
			m.Buffer = lineBufferEnergies(geo)
			return suite.Instance{Data: c, Stats: c.Stats, Model: m}
		}),
		dTech("filter-cache[6]", func(geo cache.Config) suite.Instance {
			c := baseline.NewFilterCacheD(l0geo, geo)
			m := suite.ArrayModel(geo)
			m.Buffer = cacti.LineBuffer(cacti.Tech130, l0geo.Sets, l0geo.LineBytes, 24)
			return suite.Instance{Data: c, Stats: c.Stats, Model: m}
		}),
		registered(suite.Data, DSetBuf),
		registered(suite.Data, DMAB),
		dTech("mab-2x8+linebuf", func(geo cache.Config) suite.Instance {
			c := core.NewDLineBufferController(geo, core.DefaultD)
			m := suite.ArrayModel(geo)
			m.MAB = synth.Characterize(2, 8)
			m.Buffer = lineBufferEnergies(geo)
			return suite.Instance{Data: c, Stats: c.Stats, Model: m}
		}),
	}
}

// AblationI compares the instruction-cache techniques of Section 2.
func AblationI(ctx context.Context, opts ...suite.Option) ([]AblationRow, error) {
	return runStudy(ctx, ablationITechs(), opts, aggregateAblation)
}

// ablationITechs lists the I-cache study's techniques in table order.
func ablationITechs() []suite.Technique {
	return []suite.Technique{
		registered(suite.Fetch, IOrig),
		registered(suite.Fetch, IA4),
		iTech("way-predict[9]", func(geo cache.Config) suite.Instance {
			c := baseline.NewWayPredictI(geo)
			return suite.Instance{Fetch: c, Stats: c.Stats, Model: suite.ArrayModel(geo)}
		}),
		iTech("ma-links[11]", func(geo cache.Config) suite.Instance {
			c := baseline.NewMaLinksI(geo)
			m := suite.ArrayModel(geo)
			m.Buffer = cacti.LineBuffer(cacti.Tech130, 1, 1, 2) // two link bits
			return suite.Instance{Fetch: c, Stats: c.Stats, Model: m}
		}),
		registered(suite.Fetch, IMAB16),
	}
}

// aggregateAblation averages per-benchmark counters into one row per
// technique, preserving the technique order; buffer hit rates are
// D-cache only.
func aggregateAblation(r *suite.Results, techs []suite.Technique) []AblationRow {
	rows := make([]AblationRow, len(techs))
	for i, t := range techs {
		rows[i].Tech = string(t.ID)
	}
	for _, b := range r.Benchmarks {
		for i, t := range techs {
			tr := b.D[t.ID]
			if t.Domain == suite.Fetch {
				tr = b.I[t.ID]
			}
			s := tr.Stats
			rows[i].Tags += s.TagsPerAccess()
			rows[i].Ways += s.WaysPerAccess()
			rows[i].PowerMW += power.Compute(s, b.Cycles, tr.Model).TotalMW()
			rows[i].CyclePenalty += float64(s.ExtraCycles) / float64(b.Cycles)
			if t.Domain == suite.Data && s.BufReads+s.SetBufReads > 0 {
				rows[i].BufHitRate += float64(s.BufHits+s.SetBufHits) /
					float64(s.BufReads+s.SetBufReads)
			}
		}
	}
	n := float64(len(r.Benchmarks))
	for i := range rows {
		rows[i].Tags /= n
		rows[i].Ways /= n
		rows[i].PowerMW /= n
		rows[i].CyclePenalty /= n
		rows[i].BufHitRate /= n
	}
	return rows
}

// AblationTable renders ablation rows.
func AblationTable(title string, rows []AblationRow) report.Table {
	t := report.Table{Title: title, Columns: []string{
		"technique", "tags/access", "ways/access", "power mW", "cycle penalty", "buf hit"}}
	for _, r := range rows {
		t.AddRow(r.Tech, report.F(r.Tags, 3), report.F(r.Ways, 3),
			report.F(r.PowerMW, 2), report.Pct(r.CyclePenalty), report.Pct(r.BufHitRate))
	}
	return t
}

// ConsistencyRow summarizes one MAB consistency policy over the suite.
type ConsistencyRow struct {
	Policy     string
	Violations uint64
	MABHitRate float64
	TagsPerAcc float64
}

// AblationConsistency compares the sound evict-invalidate policy with the
// paper's pure LRU rules (including both readings of the §3.3 large-
// displacement clearing rule).
func AblationConsistency(ctx context.Context, opts ...suite.Option) ([]ConsistencyRow, error) {
	return runStudy(ctx, consistencyTechs(), opts, aggregateConsistency)
}

// consistencyTechs lists one D-MAB technique per consistency policy, each
// reported under its policy name.
func consistencyTechs() []suite.Technique {
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"evict-invalidate (sound)", core.Config{TagEntries: 2, SetEntries: 8}},
		{"paper rules, clear-all", core.Config{TagEntries: 2, SetEntries: 8,
			Consistency: core.PolicyPaper, Clear: core.ClearAll}},
		{"paper rules, clear-LRU-row", core.Config{TagEntries: 2, SetEntries: 8,
			Consistency: core.PolicyPaper, Clear: core.ClearLRURow}},
		{"paper rules, Nt=1 (provable)", core.Config{TagEntries: 1, SetEntries: 8,
			Consistency: core.PolicyPaper, Clear: core.ClearAll}},
	}
	techs := make([]suite.Technique, len(configs))
	for i, c := range configs {
		cfg := c.cfg
		techs[i] = dTech(suite.ID(c.name), func(geo cache.Config) suite.Instance {
			ctl := core.NewDController(geo, cfg)
			return suite.Instance{Data: ctl, Stats: ctl.Stats}
		})
	}
	return techs
}

// aggregateConsistency sums violations and averages the MAB hit rate and
// tag reads per policy, preserving the technique order.
func aggregateConsistency(r *suite.Results, techs []suite.Technique) []ConsistencyRow {
	rows := make([]ConsistencyRow, len(techs))
	for i, t := range techs {
		rows[i].Policy = string(t.ID)
	}
	for _, b := range r.Benchmarks {
		for i, t := range techs {
			s := b.D[t.ID].Stats
			rows[i].Violations += s.Violations
			rows[i].MABHitRate += s.MABHitRate()
			rows[i].TagsPerAcc += s.TagsPerAccess()
		}
	}
	n := float64(len(r.Benchmarks))
	for i := range rows {
		rows[i].MABHitRate /= n
		rows[i].TagsPerAcc /= n
	}
	return rows
}

// ConsistencyTable renders the consistency ablation.
func ConsistencyTable(rows []ConsistencyRow) report.Table {
	t := report.Table{Title: "Consistency-policy ablation (D-cache, 2x8 MAB unless noted)",
		Columns: []string{"policy", "violations", "MAB hit rate", "tags/access"}}
	for _, r := range rows {
		t.AddRow(r.Policy, fmt.Sprintf("%d", r.Violations),
			report.Pct(r.MABHitRate), report.F(r.TagsPerAcc, 3))
	}
	return t
}

// PacketRow summarizes one fetch-packet width.
type PacketRow struct {
	PacketBytes uint32
	Cycles      uint64
	IntraSeq    float64 // fraction of fetches that are case 1
	A4Tags      float64 // [4] tags/access
	MABTags     float64 // 2x16 MAB tags/access
}

// packetWidths are the fetch-packet sizes of the packet-width study.
var packetWidths = []uint32{4, 8, 16}

// AblationPacket re-runs the suite with 4-, 8- and 16-byte fetch packets:
// wider packets mean fewer I-cache accesses but a smaller intra-line
// sequential fraction per access.
func AblationPacket(ctx context.Context, opts ...suite.Option) ([]PacketRow, error) {
	var rows []PacketRow
	for _, pb := range packetWidths {
		row, err := runStudy(ctx, packetTechs(), append(opts[:len(opts):len(opts)], suite.WithPacketBytes(pb)),
			func(r *suite.Results, _ []suite.Technique) []PacketRow { return []PacketRow{packetRow(pb, r)} })
		if err != nil {
			return nil, err
		}
		rows = append(rows, row...)
	}
	return rows, nil
}

// packetTechs lists the packet study's techniques: approach [4], whose
// flow counters give the intra-line sequential share, and the 2x16 MAB.
func packetTechs() []suite.Technique {
	return []suite.Technique{registered(suite.Fetch, IA4), registered(suite.Fetch, IMAB16)}
}

// packetRow aggregates one packet width's results into its table row.
func packetRow(pb uint32, r *suite.Results) PacketRow {
	row := PacketRow{PacketBytes: pb}
	for _, b := range r.Benchmarks {
		a4, mab := b.I[IA4].Stats, b.I[IMAB16].Stats
		row.Cycles += b.Cycles
		var total uint64
		for _, f := range a4.Flow {
			total += f
		}
		row.IntraSeq += float64(a4.Flow[trace.IntraSeq]) / float64(total)
		row.A4Tags += a4.TagsPerAccess()
		row.MABTags += mab.TagsPerAccess()
	}
	n := float64(len(r.Benchmarks))
	row.IntraSeq /= n
	row.A4Tags /= n
	row.MABTags /= n
	return row
}

// PacketTable renders the packet-width ablation.
func PacketTable(rows []PacketRow) report.Table {
	t := report.Table{Title: "Fetch-packet width ablation (I-cache)",
		Columns: []string{"packet bytes", "fetches", "intra-seq", "[4] tags/acc", "MAB tags/acc"}}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.PacketBytes), fmt.Sprintf("%d", r.Cycles),
			report.Pct(r.IntraSeq), report.F(r.A4Tags, 3), report.F(r.MABTags, 3))
	}
	return t
}
