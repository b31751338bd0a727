package suite

import (
	"fmt"

	"waymemo/internal/baseline"
	"waymemo/internal/cache"
	"waymemo/internal/cacti"
	"waymemo/internal/core"
	"waymemo/internal/power"
	"waymemo/internal/synth"
	"waymemo/internal/trace"
)

// IDs of the standard suite — the eight technique instances of the paper's
// evaluation (Figures 4-8). The D- and I-cache "original" and "mab-2x8"
// techniques share an ID string but live in different domains.
const (
	DOrig   ID = "original"
	DSetBuf ID = "setbuf[14]"
	DMAB    ID = "mab-2x8"

	IOrig  ID = "original"
	IA4    ID = "approach[4]"
	IMAB8  ID = "mab-2x8"
	IMAB16 ID = "mab-2x16"
	IMAB32 ID = "mab-2x32"
)

// ArrayModel returns the power model of a bare cache array (no MAB, no
// buffer) in the paper's 0.13µm process — the model every conventional
// technique shares.
func ArrayModel(geo cache.Config) power.Model {
	return power.Model{Array: cacti.ArrayEnergies(cacti.Tech130, geo)}
}

// MABDataTechnique builds a way-memoized D-cache technique for an arbitrary
// MAB configuration, with its power model (array + synthesized MAB).
func MABDataTechnique(id ID, desc string, cfg core.Config) Technique {
	return Technique{ID: id, Domain: Data, Desc: desc,
		New: func(geo cache.Config) Instance {
			c := core.NewDController(geo, cfg)
			return Instance{Data: c, Stats: c.Stats, Model: mabModel(geo, cfg)}
		}}
}

// MABFetchTechnique builds a way-memoized I-cache technique for an
// arbitrary MAB configuration.
func MABFetchTechnique(id ID, desc string, cfg core.Config) Technique {
	return Technique{ID: id, Domain: Fetch, Desc: desc,
		New: func(geo cache.Config) Instance {
			c := core.NewIController(geo, cfg)
			return Instance{Fetch: c, Stats: c.Stats, Model: mabModel(geo, cfg)}
		}}
}

// mabModel prices a way-memoized technique: the bare array plus the
// synthesized MAB.
func mabModel(geo cache.Config, cfg core.Config) power.Model {
	m := ArrayModel(geo)
	m.MAB = synth.Characterize(cfg.TagEntries, cfg.SetEntries)
	return m
}

// NewPoint instantiates one grid point of domain d: the conventional
// baseline ("original") followed by one way-memoized technique per MAB
// configuration, all driven by a single shared cache model (core.Point).
// It returns the point's one sink and its techniques' results, baseline
// first, then in mabs order; the counters fill as the sink is fed. They
// are bit-identical to attaching the baseline and each MABDataTechnique
// (or MABFetchTechnique) as independent controllers, at a fraction of the
// cost: the cache is simulated once, not once per technique.
func NewPoint(d Domain, geo cache.Config, mabs []core.Config) (trace.SinkPair, []TechResult) {
	p := core.NewPoint(geo, mabs...)
	res := make([]TechResult, 0, 1+len(mabs))
	res = append(res, TechResult{Stats: p.Base, Model: ArrayModel(geo)})
	for k, cfg := range mabs {
		res = append(res, TechResult{Stats: p.Stats[k], Model: mabModel(geo, cfg)})
	}
	if d == Fetch {
		return trace.SinkPair{Fetch: p}, res
	}
	return trace.SinkPair{Data: p}, res
}

// mabID formats the conventional NtxNs MAB name ("mab-2x8").
func mabID(cfg core.Config) ID {
	return ID(fmt.Sprintf("mab-%dx%d", cfg.TagEntries, cfg.SetEntries))
}

func init() {
	// Data-cache techniques of Figures 4 and 5.
	MustRegister(Technique{ID: DOrig, Domain: Data,
		Desc: "conventional 2-way access (all tags, all ways)",
		New: func(geo cache.Config) Instance {
			c := baseline.NewOriginalD(geo)
			return Instance{Data: c, Stats: c.Stats, Model: ArrayModel(geo)}
		}})
	MustRegister(Technique{ID: DSetBuf, Domain: Data,
		Desc: "set buffer of Yang, Yu & Zhang [14]",
		New: func(geo cache.Config) Instance {
			c := baseline.NewSetBufferD(geo)
			m := ArrayModel(geo)
			m.Buffer = cacti.LineBuffer(cacti.Tech130, geo.Ways, geo.LineBytes, geo.TagBits())
			return Instance{Data: c, Stats: c.Stats, Model: m}
		}})
	MustRegister(MABDataTechnique(mabID(core.DefaultD),
		"way-memoized D-cache, 2x8 MAB (the paper's pick)", core.DefaultD))

	// Instruction-cache techniques of Figures 6 and 7.
	MustRegister(Technique{ID: IOrig, Domain: Fetch,
		Desc: "conventional 2-way fetch (all tags, all ways)",
		New: func(geo cache.Config) Instance {
			c := baseline.NewOriginalI(geo)
			return Instance{Fetch: c, Stats: c.Stats, Model: ArrayModel(geo)}
		}})
	MustRegister(Technique{ID: IA4, Domain: Fetch,
		Desc: "intra-line sequential memoization of Panwar & Rennels [4]",
		New: func(geo cache.Config) Instance {
			c := baseline.NewApproach4I(geo)
			return Instance{Fetch: c, Stats: c.Stats, Model: ArrayModel(geo)}
		}})
	MustRegister(MABFetchTechnique(IMAB8,
		"way-memoized I-cache, 2x8 MAB", core.Config{TagEntries: 2, SetEntries: 8}))
	MustRegister(MABFetchTechnique(mabID(core.DefaultI),
		"way-memoized I-cache, 2x16 MAB (the paper's pick)", core.DefaultI))
	MustRegister(MABFetchTechnique(IMAB32,
		"way-memoized I-cache, 2x32 MAB", core.Config{TagEntries: 2, SetEntries: 32}))
}
