// Command perfbench is the repository's end-to-end and per-layer benchmark.
//
// It runs one workload per invocation and prints, as the last line of
// standard output, one JSON object with the keys correct, attempted, failed
// and metrics. With --trace 0 the metrics are the end-to-end ones, measured
// on the program's own processes (the wmx binary built from this checkout);
// with --trace 1 they are the per-layer ones, measured by calling each
// layer's public functions in-process under a span recorder. See README.md
// for the workloads, the metrics and how to run it; run.sh builds both
// binaries and starts it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	small    bool
	root     string // checkout root (BENCHMARK.json, goldens)
	out      string // build and scratch directory inside the checkout
	wmx      string // wmx binary built from the checkout
	golden   string // goldens file
	record   bool
}

// result is what the run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts operations (grid points, submissions, queries, process
// runs) and the ones that failed, were refused or returned a wrong result.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
}

func (t *tally) ok() { t.okN(1) }

func (t *tally) okN(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += n
}

// bad records n failed operations with the reason.
func (t *tally) bad(n int, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += n
	t.failed += n
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", fmt.Sprintf(format, args...))
}

// values collects the measured metric values of one run, by name.
type values map[string]float64

var workloadNames = []string{"report", "sweep-cold", "serve-mixed"}

func main() {
	var cfg config
	var traceFlag int
	var size string
	flag.StringVar(&cfg.workload, "workload", "", "workload: report, sweep-cold or serve-mixed")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measuring time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
	flag.StringVar(&size, "size", "full", "full, or small for the harness self-test")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout root")
	flag.StringVar(&cfg.out, "out", ".bench_build", "build and scratch directory")
	flag.StringVar(&cfg.wmx, "wmx", "", "wmx binary built from the checkout")
	flag.BoolVar(&cfg.record, "record", false, "write what this run measures into the goldens file instead of checking it")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.small = size == "small"
	if err := cfg.validate(traceFlag, size); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg.golden = filepath.Join(cfg.root, "perfbench", "goldens.json")
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
	if !res.Correct {
		os.Exit(1)
	}
}

func (c *config) validate(traceFlag int, size string) error {
	known := false
	for _, n := range workloadNames {
		known = known || c.workload == n
	}
	switch {
	case !known:
		return fmt.Errorf("unknown --workload %q (valid: %v)", c.workload, workloadNames)
	case traceFlag != 0 && traceFlag != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	case size != "full" && size != "small":
		return fmt.Errorf("--size must be full or small")
	case c.seconds <= 0:
		return fmt.Errorf("--seconds must be positive")
	case c.wmx == "":
		return fmt.Errorf("--wmx is required")
	}
	return nil
}

// run executes one invocation and assembles its result line.
func run(cfg config) (*result, error) {
	spec, err := loadSpec(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	gold, err := loadGoldens(cfg.golden)
	if err != nil {
		return nil, err
	}
	gold.record = cfg.record
	work, err := os.MkdirTemp(cfg.out, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	host := hostFacts()
	hostBlob, _ := json.Marshal(host)
	fmt.Fprintf(os.Stderr, "perfbench: host %s\n", hostBlob)

	env := &env{cfg: cfg, work: work, gold: gold,
		rng: rand.New(rand.NewPCG(cfg.seed, 0x9e3779b97f4a7c15))}
	ctx := context.Background()
	var t tally
	var vals values
	want := spec.EndToEnd
	if cfg.trace {
		want = spec.PerLayer
		vals, err = tracedRun(ctx, env, &t, host)
	} else {
		vals, err = untracedRun(ctx, env, &t)
	}
	if err != nil {
		return nil, err
	}
	if cfg.record {
		if err := gold.save(); err != nil {
			return nil, err
		}
	}
	res := &result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	var missing []string
	for _, m := range want {
		v, ok := vals[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.bad(1, "metrics not measured: %v", missing)
		res.Attempted, res.Failed = t.attempted, t.failed
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// env is what the workload runners share.
type env struct {
	cfg  config
	work string // scratch directory for stores, caches and spans
	gold *goldens
	rng  *rand.Rand
	once bool // one iteration, for the traced run's untraced reference
}

// since returns the seconds elapsed from t0.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }

// benchSpec is the part of BENCHMARK.json the harness reads: the metric
// names and units it must report.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
