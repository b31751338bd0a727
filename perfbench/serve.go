package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"waymemo/internal/explore"
	"waymemo/internal/serve"
	"waymemo/internal/serve/client"
)

// daemon is one booted sweep daemon, as a wmx process or in-process.
type daemon interface {
	url() string
	// stop shuts the daemon down gracefully and returns its peak RSS in
	// MiB where it is known.
	stop() (rssMB float64, err error)
}

// booter starts a daemon on a store directory and returns it once
// /readyz answers 200, with the seconds that took.
type booter func(store string) (daemon, float64, error)

// waitReady polls /readyz until it answers 200.
func waitReady(base string, deadline time.Time) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for {
		resp, err := hc.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s not ready: %v", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// procDaemon is `wmx serve` as its own process.
type procDaemon struct {
	p    *proc
	base string
}

func (d *procDaemon) url() string { return d.base }

func (d *procDaemon) stop() (float64, error) {
	if err := d.p.terminate(stopTimeout); err != nil {
		return 0, err
	}
	return d.p.peakRSS(), nil
}

// processBooter boots `wmx serve -j 2` on a loopback port the kernel picks.
func processBooter(e *env) booter {
	return func(store string) (daemon, float64, error) {
		p, err := spawn(e, e.work, nil, "serve", "-j", "2", "-listen", "127.0.0.1:0", "-store-dir", store)
		if err != nil {
			return nil, 0, err
		}
		select {
		case <-p.err.listenCh:
		case <-p.done:
			return nil, 0, fmt.Errorf("wmx serve exited at boot: %v: %s", p.wait, tail(p.err.String()))
		case <-time.After(setupTimeout):
			p.kill()
			return nil, 0, fmt.Errorf("wmx serve: no listen address within %v", setupTimeout)
		}
		p.err.mu.Lock()
		base := "http://" + p.err.addr
		p.err.mu.Unlock()
		if err := waitReady(base, time.Now().Add(setupTimeout)); err != nil {
			p.kill()
			return nil, 0, err
		}
		return &procDaemon{p: p, base: base}, since(p.start), nil
	}
}

// inprocDaemon is a serve.Server in the harness's own process.
type inprocDaemon struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan error
}

func (d *inprocDaemon) url() string { return d.base }

func (d *inprocDaemon) stop() (float64, error) {
	d.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx)
	d.srv.Close()
	if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return 0, err
	}
	return 0, nil
}

// inprocBooter boots serve.New on a loopback listener, as `wmx serve -j 2`
// does.
func inprocBooter(tr *tracer, parent int) booter {
	return func(store string) (daemon, float64, error) {
		t0 := time.Now()
		var d *inprocDaemon
		err := tr.do(parent, "serve.boot", "serve", func(int) error {
			srv, err := serve.New(serve.Config{StoreDir: store, Parallelism: 2})
			if err != nil {
				return err
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				srv.Close()
				return err
			}
			d = &inprocDaemon{srv: srv, base: "http://" + ln.Addr().String(), served: make(chan error, 1),
				hs: &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}}
			go func() { d.served <- d.hs.Serve(ln) }()
			if err := waitReady(d.base, time.Now().Add(setupTimeout)); err != nil {
				d.stop()
				return err
			}
			return nil
		})
		return d, since(t0), err
	}
}

// serveOutcome is what one serve-mixed scenario measured.
type serveOutcome struct {
	setupS     []float64 // spawn-to-ready of each reboot on the populated store
	coldS      float64   // client A: submit until terminal status
	submitMS   float64   // client A's POST /v1/sweeps
	firstDoneS float64   // client A: submit until its first point is done
	pointGaps  []float64 // ms between client A's consecutive done events
	warmMS     []float64 // client A's fully stored re-sweeps
	queryMS    []float64
	rssMB      float64 // the cold-phase daemon

	cold   serve.ServerStats // cold-phase counter deltas
	shed   int64             // sweeps shed by any daemon of the scenario
	store  string
	spaceA explore.Space
}

// serveReboots is how many times the scenario restarts the daemon on the
// populated store; each restart is a setup_s sample and carries one warm
// re-sweep per client.
const serveReboots = 3

// serveScenario runs the serve-mixed traffic, grids A and B, on daemons
// from boot:
//
//  1. a daemon boots on a fresh store; client A submits grid A; once A's
//     first point is done, client B submits grid B, which overlaps A; both
//     follow their SSE streams to the end. The daemon must have simulated
//     each unique point exactly once, and both grids must match their
//     goldens point for point.
//  2. the daemon stops and reboots on the populated store serveReboots
//     times (recovery and journal replay). On each boot both clients
//     re-submit their grids, which the store must serve entirely.
//  3. on the last boot the two clients send the seeded analytics queries,
//     closed loop, and each answer is checked against the analysis of the
//     checked grid.
//
// Grid points, submissions and queries are the counted operations.
func serveScenario(ctx context.Context, e *env, t *tally, boot booter, A, B grid, queries int) (*serveOutcome, error) {
	A, B = A.shuffled(e.rng), B.shuffled(e.rng)
	reqA, reqB := A.request(), B.request()
	spA, err := reqA.Space()
	if err != nil {
		return nil, err
	}
	spB, err := reqB.Space()
	if err != nil {
		return nil, err
	}
	store, err := os.MkdirTemp(e.work, "store-")
	if err != nil {
		return nil, err
	}
	out := &serveOutcome{store: store, spaceA: spA}
	nA, nB := len(A.labels()), len(B.labels())

	// Cold phase.
	d, _, err := boot(store)
	if err != nil {
		return nil, err
	}
	ca, cb := client.New(d.url()), client.New(d.url())
	st0, err := ca.Stats(ctx)
	if err != nil {
		d.stop()
		return nil, err
	}
	firstDone := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	var idB string
	var okB bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-firstDone
		idB, okB = submit(ctx, t, cb, reqB, nB, nil)
		if okB {
			st, err := cb.Events(ctx, idB, nil)
			okB = checkDone(t, "serve B cold", st, err, nB)
		}
	}()
	t0 := time.Now()
	var last time.Time
	idA, okA := submit(ctx, t, ca, reqA, nA, &out.submitMS)
	if okA {
		st, err := ca.Events(ctx, idA, func(ev serve.Event) {
			if ev.Status != "done" {
				return
			}
			now := time.Now()
			if last.IsZero() {
				out.firstDoneS = now.Sub(t0).Seconds()
				once.Do(func() { close(firstDone) })
			} else {
				out.pointGaps = append(out.pointGaps, float64(now.Sub(last).Microseconds())/1000)
			}
			last = now
		})
		out.coldS = since(t0)
		okA = checkDone(t, "serve A cold", st, err, nA)
	}
	once.Do(func() { close(firstDone) })
	wg.Wait()

	st1, err := ca.Stats(ctx)
	if err != nil {
		d.stop()
		return nil, err
	}
	out.cold = statsDelta(st1, st0)
	out.shed += st1.ShedSweeps
	if uniq := len(union(A, B)); out.cold.Simulations != int64(uniq) {
		t.bad(1, "serve: %d simulations for %d unique points", out.cold.Simulations, uniq)
	} else {
		t.ok()
	}
	var expA, expB analysis
	if okA {
		expA = fetchGrid(ctx, e, t, ca, "serve A", idA, spA, A.labels())
	}
	if okB {
		expB = fetchGrid(ctx, e, t, ca, "serve B", idB, spB, B.labels())
	}
	if out.rssMB, err = d.stop(); err != nil {
		return nil, err
	}

	// Warm phase: reboots on the populated store.
	for r := 0; r < serveReboots; r++ {
		d, s, err := boot(store)
		if err != nil {
			return nil, err
		}
		out.setupS = append(out.setupS, s)
		ca, cb := client.New(d.url()), client.New(d.url())
		wg.Add(1)
		go func() {
			defer wg.Done()
			if id, ok := submit(ctx, t, cb, reqB, nB, nil); ok {
				st, err := cb.Events(ctx, id, nil)
				checkWarm(t, "serve B warm", st, err, nB)
			}
		}()
		t1 := time.Now()
		if id, ok := submit(ctx, t, ca, reqA, nA, nil); ok {
			st, err := ca.Events(ctx, id, nil)
			out.warmMS = append(out.warmMS, float64(time.Since(t1).Microseconds())/1000)
			checkWarm(t, "serve A warm", st, err, nA)
		}
		wg.Wait()
		if r == serveReboots-1 && okA && okB {
			out.queryMS = runQueries(ctx, e, t, [2]*client.Client{ca, cb},
				[2]string{idA, idB}, [2]analysis{expA, expB}, queries)
		}
		if st, err := ca.Stats(ctx); err == nil {
			out.shed += st.ShedSweeps
		}
		if _, err := d.stop(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkDone counts a followed sweep's points: all good when it ended done.
func checkDone(t *tally, what string, st serve.JobStatus, err error, points int) bool {
	switch {
	case err != nil:
		t.bad(points, "%s: %v", what, err)
	case st.State != "done":
		t.bad(points, "%s: sweep %s: %s", what, st.State, st.Error)
	case st.Metrics.Done != points:
		t.bad(points, "%s: %d of %d points done", what, st.Metrics.Done, points)
	default:
		t.okN(points)
		return true
	}
	return false
}

// checkWarm additionally requires a re-sweep to be served wholly from the
// store.
func checkWarm(t *tally, what string, st serve.JobStatus, err error, points int) {
	if err == nil && st.State == "done" && st.Metrics.StoreHits != points {
		t.bad(points, "%s: %d of %d points from the store (%d simulated)",
			what, st.Metrics.StoreHits, points, st.Metrics.Simulated)
		return
	}
	checkDone(t, what, st, err, points)
}

// statsDelta subtracts the counters the benchmark reports.
func statsDelta(a, b serve.ServerStats) serve.ServerStats {
	return serve.ServerStats{
		RequestedPoints: a.RequestedPoints - b.RequestedPoints,
		Points:          a.Points - b.Points,
		StoreHits:       a.StoreHits - b.StoreHits,
		DedupJoins:      a.DedupJoins - b.DedupJoins,
		Simulations:     a.Simulations - b.Simulations,
		JournalRecords:  a.JournalRecords - b.JournalRecords,
		ShedSweeps:      a.ShedSweeps - b.ShedSweeps,
	}
}

// analysis is the expected answer to each analytics query of one sweep.
type analysis struct {
	candidates, pareto []explore.Candidate
	marginals          []explore.Marginal
	optimum            serve.OptimumResponse
}

// fetchGrid fetches a finished sweep's grid, checks it against the
// goldens (the operations were counted when the sweep was followed, so a
// mismatch here adds failures only) and derives the expected analytics.
func fetchGrid(ctx context.Context, e *env, t *tally, c *client.Client, what, id string,
	sp explore.Space, want []string) analysis {
	res, err := c.Result(ctx, id)
	if err != nil {
		t.bad(1, "%s: result: %v", what, err)
		return analysis{}
	}
	var check tally
	e.gold.checkGrid(&check, what, res.Points, want)
	if check.failed > 0 {
		t.bad(check.failed, "%s: %d points differ from the goldens", what, check.failed)
	}
	g := &explore.Grid{Space: sp, Points: res.Points}
	best, _ := explore.Optimum(g.Candidates())
	tags, sets := explore.PaperPick(sp.Domain)
	return analysis{
		candidates: g.Candidates(),
		pareto:     explore.Pareto(g.Candidates()),
		marginals:  g.Marginals(),
		optimum:    serve.OptimumResponse{Optimum: best, PaperTags: tags, PaperSets: sets},
	}
}

// runQueries sends the seeded query sequence from two closed-loop clients,
// taking turns, and checks every answer. It returns each query's latency.
func runQueries(ctx context.Context, e *env, t *tally, cs [2]*client.Client, ids [2]string,
	exp [2]analysis, n int) []float64 {
	type query struct{ kind, sweep int }
	seq := make([]query, n)
	for i := range seq {
		seq[i] = query{e.rng.IntN(4), e.rng.IntN(2)}
	}
	lat := make([]float64, n)
	var wg sync.WaitGroup
	for k := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < n; i += len(cs) {
				q := seq[i]
				id, want := ids[q.sweep], exp[q.sweep]
				t0 := time.Now()
				var got, expect any
				var err error
				switch q.kind {
				case 0:
					got, err = cs[k].Candidates(ctx, id)
					expect = want.candidates
				case 1:
					got, err = cs[k].Pareto(ctx, id)
					expect = want.pareto
				case 2:
					got, err = cs[k].Marginals(ctx, id)
					expect = want.marginals
				default:
					got, err = cs[k].Optimum(ctx, id)
					expect = want.optimum
				}
				lat[i] = float64(time.Since(t0).Microseconds()) / 1000
				switch {
				case err != nil:
					t.bad(1, "query %d: %v", q.kind, err)
				case !jsonEqual(got, expect):
					t.bad(1, "query %d on %s: wrong answer", q.kind, id)
				default:
					t.ok()
				}
			}
		}()
	}
	wg.Wait()
	return lat
}

// submit posts a sweep and records the POST latency; a refusal or error
// fails the submission and every point of the grid.
func submit(ctx context.Context, t *tally, c *client.Client, req serve.SweepRequest, points int, ms *float64) (string, bool) {
	t0 := time.Now()
	resp, err := c.Submit(ctx, req)
	if ms != nil {
		*ms = float64(time.Since(t0).Microseconds()) / 1000
	}
	if err != nil {
		t.bad(1+points, "submit: %v", err)
		return "", false
	}
	if resp.Points != points {
		t.bad(1+points, "submit: daemon expanded %d points, want %d", resp.Points, points)
		return "", false
	}
	t.ok()
	return resp.ID, true
}

// jsonEqual reports whether two values marshal identically.
func jsonEqual(a, b any) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && string(ja) == string(jb)
}
