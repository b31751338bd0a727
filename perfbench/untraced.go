package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"time"

	"waymemo/internal/explore"
)

// Time limits for one wmx process; a run that hits one fails.
const (
	batchTimeout = 120 * time.Second
	setupTimeout = 30 * time.Second
	stopTimeout  = 30 * time.Second
)

// setupProbes is how many extra spawn-to-ready measurements a batch
// workload takes before its iterations; their median with the iterations'
// own spawns is setup_s.
const setupProbes = 8

// untracedRun measures the end-to-end metrics of one workload on wmx
// processes, with no tracing.
func untracedRun(ctx context.Context, e *env, t *tally) (values, error) {
	switch e.cfg.workload {
	case "report":
		return untracedReport(e, t)
	case "sweep-cold":
		return untracedSweep(e, t)
	default:
		return untracedServe(ctx, e, t)
	}
}

// iterate runs fn repeatedly within the time budget: at least twice (once
// at the small size or for a traced run's reference), then again only
// while the median iteration so far still fits.
func iterate(e *env, fn func() error) error {
	minIters := 2
	if e.cfg.small || e.once {
		minIters = 1
	}
	t0 := time.Now()
	var durs []float64
	for i := 0; ; i++ {
		if i >= minIters && since(t0)+median(durs) > e.cfg.seconds {
			return nil
		}
		s := time.Now()
		if err := fn(); err != nil {
			return err
		}
		durs = append(durs, since(s))
	}
}

// batchSamples collects one batch workload's per-process measurements.
type batchSamples struct {
	setup, wall, rss []float64
}

func (b *batchSamples) values() values {
	return values{"setup_s": median(b.setup), "wall_s": median(b.wall), "peak_rss_mb": median(b.rss)}
}

// add records one exited process's wall time and peak RSS.
func (b *batchSamples) add(p *proc) {
	b.wall, b.rss = append(b.wall, p.wall()), append(b.rss, p.peakRSS())
	fmt.Fprintf(os.Stderr, "perfbench: run %d: wall %.3fs, peak RSS %.1fMiB\n", len(b.wall), p.wall(), p.peakRSS())
}

// probeSetup spawns wmx with args in a fresh directory, times spawn to its
// first stderr output (the mode's start banner, printed once flags and the
// grid are validated and before any simulation), and kills it.
func probeSetup(e *env, t *tally, b *batchSamples, args func(dir string) []string) error {
	for i := 0; i < setupProbes; i++ {
		dir, err := os.MkdirTemp(e.work, "probe-")
		if err != nil {
			return err
		}
		p, err := spawn(e, dir, nil, args(dir)...)
		if err != nil {
			return err
		}
		s, err := p.firstOutput(setupTimeout)
		p.kill()
		os.RemoveAll(dir)
		if err != nil {
			t.bad(1, "setup probe: %v", err)
			continue
		}
		t.ok()
		b.setup = append(b.setup, s)
	}
	return nil
}

// untracedReport runs `wmx -exp report -j 2` in fresh processes and checks
// each stdout against the golden hash.
func untracedReport(e *env, t *tally) (values, error) {
	var b batchSamples
	args := func(string) []string { return []string{"-exp", "report", "-j", "2"} }
	if err := probeSetup(e, t, &b, args); err != nil {
		return nil, err
	}
	err := iterate(e, func() error {
		h := sha256.New()
		p, err := spawn(e, e.work, h, args("")...)
		if err != nil {
			return err
		}
		if s, err := p.firstOutput(setupTimeout); err == nil {
			b.setup = append(b.setup, s)
		}
		if err := p.finish(batchTimeout); err != nil {
			t.bad(1, "report: %v", err)
			return nil
		}
		e.gold.checkReport(t, hex.EncodeToString(h.Sum(nil)))
		b.add(p)
		return nil
	})
	return b.values(), err
}

// simulatedRE reads explore's summary line ("0 cached, 48 simulated").
var simulatedRE = regexp.MustCompile(`(\d+) cached, (\d+) simulated`)

// untracedSweep runs a cold `wmx explore -j 2` over the sweep grid in fresh
// processes with fresh cache directories, and checks every stored point
// against its golden.
func untracedSweep(e *env, t *tally) (values, error) {
	var b batchSamples
	g := sweepGrid(e.cfg.small)
	argsFor := func(g grid, dir string) []string {
		return append(append([]string{"explore", "-j", "2"}, g.exploreArgs()...),
			"-cache-dir", dir, "-csv")
	}
	if err := probeSetup(e, t, &b, func(dir string) []string {
		return argsFor(g.shuffled(e.rng), dir)
	}); err != nil {
		return nil, err
	}
	err := iterate(e, func() error {
		sg := g.shuffled(e.rng)
		dir, err := os.MkdirTemp(e.work, "explore-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		p, err := spawn(e, dir, io.Discard, argsFor(sg, dir)...)
		if err != nil {
			return err
		}
		if s, err := p.firstOutput(setupTimeout); err == nil {
			b.setup = append(b.setup, s)
		}
		want := sg.labels()
		if err := p.finish(batchTimeout); err != nil {
			t.bad(len(want), "sweep-cold: %v", err)
			return nil
		}
		if m := simulatedRE.FindStringSubmatch(p.err.String()); m == nil || m[1] != "0" || m[2] != strconv.Itoa(len(want)) {
			t.bad(1, "sweep-cold: sweep was not fully cold: %q", m)
		} else {
			t.ok()
		}
		pts, err := readCacheDir(dir, sg.request().Space)
		if err != nil {
			return err
		}
		e.gold.checkGrid(t, "sweep-cold", pts, want)
		b.add(p)
		return nil
	})
	return b.values(), err
}

// readCacheDir loads the grid's points from a result cache directory
// written by `wmx explore -cache-dir`; points it does not hold are left out.
func readCacheDir(dir string, space func() (explore.Space, error)) ([]explore.PointResult, error) {
	sp, err := space()
	if err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	dc, err := explore.NewDirCache(dir)
	if err != nil {
		return nil, err
	}
	var out []explore.PointResult
	for _, pt := range sp.Points() {
		key := explore.KeyWorkload(sp.Domain, pt.Geometry, pt.Workload, sp.PacketBytes, sp.MABs())
		if pr, ok := dc.Get(key); ok {
			out = append(out, *pr)
		}
	}
	return out, nil
}

// untracedServe runs the serve-mixed scenario against `wmx serve -j 2`
// daemons.
func untracedServe(ctx context.Context, e *env, t *tally) (values, error) {
	var setup, cold, rss []float64
	err := iterate(e, func() error {
		out, err := serveScenario(ctx, e, t, processBooter(e),
			sweepGrid(e.cfg.small), overlapGrid(e.cfg.small), serveQueries(e.cfg.small))
		if err != nil {
			return err
		}
		os.RemoveAll(out.store)
		setup = append(setup, out.setupS...)
		cold, rss = append(cold, out.coldS), append(rss, out.rssMB)
		fmt.Fprintf(os.Stderr, "perfbench: scenario %d: cold sweep %.3fs, warm %.1fms, query p50 %.3fms, boot %.3fs\n",
			len(cold), out.coldS, median(out.warmMS), median(out.queryMS), median(out.setupS))
		return nil
	})
	return values{"setup_s": median(setup), "wall_s": median(cold), "peak_rss_mb": median(rss)}, err
}

// serveQueries is the analytics query count of one serve-mixed iteration;
// every run makes at least two iterations.
func serveQueries(small bool) int {
	if small {
		return 8
	}
	return 500
}
