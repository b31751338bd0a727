package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"strings"

	"waymemo/internal/explore"
	"waymemo/internal/power"
	"waymemo/internal/serve"
	"waymemo/internal/stats"
)

// goldens are the correctness references, recorded by running this harness
// with --record on the commit that introduced it. Every run compares
// against them; any mismatch is a failed operation.
type goldens struct {
	// ReportSHA256 is the sha256 of `wmx -exp report` standard output.
	ReportSHA256 string `json:"report_sha256"`
	// Points maps a grid point label (workload/SETSxWAYSxLINE, data domain,
	// the paper's 1-2 x 4-32 MAB grid) to the hash of its canonical result.
	Points map[string]string `json:"points"`
	// Exact holds, per workload and size, the per-layer counts that must
	// repeat bit for bit.
	Exact map[string]map[string]float64 `json:"exact"`

	path   string
	record bool
}

func loadGoldens(path string) (*goldens, error) {
	g := &goldens{path: path, Points: map[string]string{}, Exact: map[string]map[string]float64{}}
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("goldens: %w", err)
	}
	if err := json.Unmarshal(blob, g); err != nil {
		return nil, fmt.Errorf("goldens %s: %w", path, err)
	}
	return g, nil
}

// save writes the goldens back (record mode only).
func (g *goldens) save() error {
	blob, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(g.path, append(blob, '\n'), 0o644)
}

// checkReport compares a report's stdout hash with the golden.
func (g *goldens) checkReport(t *tally, sum string) {
	switch {
	case g.record:
		g.ReportSHA256 = sum
		t.ok()
	case sum != g.ReportSHA256:
		t.bad(1, "report stdout sha256 %s, golden %s", sum, g.ReportSHA256)
	default:
		t.ok()
	}
}

// checkGrid counts one operation per expected grid point: a point that is
// missing, duplicated or differs from its golden fails.
func (g *goldens) checkGrid(t *tally, what string, pts []explore.PointResult, want []string) {
	got := map[string]string{}
	for i := range pts {
		label := pointLabel(&pts[i])
		if _, dup := got[label]; dup {
			t.bad(1, "%s: point %s returned twice", what, label)
			continue
		}
		got[label] = pointHash(&pts[i])
	}
	for _, label := range want {
		h, ok := got[label]
		delete(got, label)
		switch {
		case !ok:
			t.bad(1, "%s: point %s missing", what, label)
		case g.record:
			g.Points[label] = h
			t.ok()
		case g.Points[label] != h:
			t.bad(1, "%s: point %s result %.12s differs from golden %.12s", what, label, h, g.Points[label])
		default:
			t.ok()
		}
	}
	for label := range got {
		t.bad(1, "%s: unexpected point %s", what, label)
	}
}

// checkExact compares counts that must repeat exactly.
func (g *goldens) checkExact(t *tally, key string, got values, names ...string) {
	for _, n := range names {
		v := got[n]
		want, ok := g.Exact[key][n]
		switch {
		case g.record:
			if g.Exact[key] == nil {
				g.Exact[key] = map[string]float64{}
			}
			g.Exact[key][n] = v
			t.ok()
		case !ok || v != want:
			t.bad(1, "%s: %s = %v, golden %v", key, n, v, want)
		default:
			t.ok()
		}
	}
}

func pointLabel(pr *explore.PointResult) string {
	return fmt.Sprintf("%s/%dx%dx%d", pr.Workload, pr.Geometry.Sets, pr.Geometry.Ways, pr.Geometry.LineBytes)
}

// canonicalTech is a technique outcome reduced to the fields that define
// the result, named explicitly so that a field added to the program's
// types later does not change the hash of an unchanged result.
type canonicalTech struct {
	ID                                    string
	TagEntries, SetEntries                int
	Accesses, Loads, Stores               uint64
	Hits, Misses, Refills, WriteBacks     uint64
	TagReads, WayReads, WayWrites         uint64
	MABLookups, MABHits, MABMisses        uint64
	MABBypasses, MABUpdates, Violations   uint64
	Flow                                  [4]uint64
	Case1Skips                            uint64
	SetBufHits, SetBufReads, SetBufWrites uint64
	BufHits, BufReads, BufWrites          uint64
	ExtraCycles                           uint64
	DataMW, TagMW, MABMW, BufMW, LeakMW   float64
}

func canonical(id string, tags, sets int, s stats.Counters, p power.Breakdown) canonicalTech {
	return canonicalTech{
		ID: id, TagEntries: tags, SetEntries: sets,
		Accesses: s.Accesses, Loads: s.Loads, Stores: s.Stores,
		Hits: s.Hits, Misses: s.Misses, Refills: s.Refills, WriteBacks: s.WriteBacks,
		TagReads: s.TagReads, WayReads: s.WayReads, WayWrites: s.WayWrites,
		MABLookups: s.MABLookups, MABHits: s.MABHits, MABMisses: s.MABMisses,
		MABBypasses: s.MABBypasses, MABUpdates: s.MABUpdates, Violations: s.Violations,
		Flow: s.Flow, Case1Skips: s.Case1Skips,
		SetBufHits: s.SetBufHits, SetBufReads: s.SetBufReads, SetBufWrites: s.SetBufWrites,
		BufHits: s.BufHits, BufReads: s.BufReads, BufWrites: s.BufWrites,
		ExtraCycles: s.ExtraCycles,
		DataMW:      p.DataMW, TagMW: p.TagMW, MABMW: p.MABMW, BufMW: p.BufMW, LeakMW: p.LeakMW,
	}
}

// pointHash hashes a point's canonical form. Techniques are sorted by ID,
// so the order of the MAB axes in a request does not change the hash.
func pointHash(pr *explore.PointResult) string {
	techs := make([]canonicalTech, 0, len(pr.Techs))
	for _, t := range pr.Techs {
		techs = append(techs, canonical(t.ID, t.TagEntries, t.SetEntries, t.Stats, t.Power))
	}
	sort.Slice(techs, func(i, j int) bool { return techs[i].ID < techs[j].ID })
	blob, err := json.Marshal(struct {
		Label          string
		Cycles, Instrs uint64
		Techs          []canonicalTech
	}{pointLabel(pr), pr.Cycles, pr.Instrs, techs})
	if err != nil {
		panic(err) // plain values only; Marshal cannot fail
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// grid is a data-domain sweep over the paper's MAB grid.
type grid struct {
	Sets, Ways, Line []int
	Kernels          []string
}

// The paper's MAB grid (1-2 tag entries x 4-32 set entries).
var mabTags, mabSets = []int{1, 2}, []int{4, 8, 16, 32}

// sweepGrid is the sweep-cold grid and serve-mixed client A's grid.
func sweepGrid(small bool) grid {
	if small {
		return grid{[]int{512}, []int{2}, []int{32}, []string{"DCT"}}
	}
	return grid{[]int{128, 256, 512, 1024}, []int{1, 2, 4}, []int{16, 32}, []string{"DCT", "mpeg2enc"}}
}

// overlapGrid is serve-mixed client B's grid: it shares part of A's.
func overlapGrid(small bool) grid {
	if small {
		return grid{[]int{512, 1024}, []int{2}, []int{32}, []string{"DCT"}}
	}
	return grid{[]int{512, 1024, 2048}, []int{2, 4}, []int{32}, []string{"DCT", "mpeg2enc"}}
}

// reportGrid is the paper's geometry over the report's kernels: the grid
// the report workload's traced run sweeps through explore and serve.
func reportGrid(small bool) grid {
	if small {
		return grid{[]int{512}, []int{2}, []int{32}, []string{"DCT"}}
	}
	return grid{[]int{512}, []int{2}, []int{32},
		[]string{"DCT", "FFT", "dhrystone", "whetstone", "compress", "jpeg_enc", "mpeg2enc"}}
}

// reportOverlapGrid is client B's grid in the report workload's traced
// serve phase: it shares the paper geometry's DCT and mpeg2enc points.
func reportOverlapGrid(small bool) grid {
	if small {
		return overlapGrid(small)
	}
	return grid{[]int{512, 1024}, []int{2}, []int{32}, []string{"DCT", "mpeg2enc"}}
}

// labels lists the grid's point labels.
func (g grid) labels() []string {
	var out []string
	for _, s := range g.Sets {
		for _, w := range g.Ways {
			for _, l := range g.Line {
				for _, k := range g.Kernels {
					out = append(out, fmt.Sprintf("%s/%dx%dx%d", k, s, w, l))
				}
			}
		}
	}
	return out
}

// shuffled returns the grid with its geometry axes in a seeded order. The
// set of points, and so every result, is unchanged. The kernel order and
// the MAB axes stay fixed: the kernel order decides which shard explore
// schedules first, and point keys include the MAB list in order, so clients
// that share points must list it alike.
func (g grid) shuffled(rng *rand.Rand) grid {
	return grid{perm(rng, g.Sets), perm(rng, g.Ways), perm(rng, g.Line), g.Kernels}
}

func perm[T any](rng *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func (g grid) request() serve.SweepRequest {
	return serve.SweepRequest{Domain: "data", Sets: g.Sets, Ways: g.Ways, LineBytes: g.Line,
		TagEntries: mabTags, SetEntries: mabSets, Workloads: g.Kernels}
}

// exploreArgs renders the grid as `wmx explore` flags.
func (g grid) exploreArgs() []string {
	return []string{"-domain", "data",
		"-sets", joinInts(g.Sets), "-ways", joinInts(g.Ways), "-line", joinInts(g.Line),
		"-mab-tags", joinInts(mabTags), "-mab-sets", joinInts(mabSets),
		"-workloads", strings.Join(g.Kernels, ",")}
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}

// union returns the distinct labels of the grids.
func union(gs ...grid) []string {
	seen := map[string]bool{}
	var out []string
	for _, g := range gs {
		for _, l := range g.labels() {
			if !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
	}
	return out
}
