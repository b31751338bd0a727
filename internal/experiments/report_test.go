package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"waymemo/internal/cache"
	"waymemo/internal/suite"
	"waymemo/internal/workloads"
)

// composeReport builds the report study by study: the suite pass and the
// D, I and consistency studies share one in-memory trace cache (each kernel
// executes once and every study replays its capture), and the packet study
// runs live.
func composeReport(t *testing.T, par int, opts ...suite.Option) *Report {
	t.Helper()
	ctx := context.Background()
	base := append([]suite.Option{suite.WithGeometry(Geometry), suite.WithParallelism(par)}, opts...)
	shared := append(base[:len(base):len(base)], suite.WithTraceCache(suite.NewTraceCache()))
	var rep Report
	var err error
	if rep.Results, err = suite.Run(ctx, shared...); err != nil {
		t.Fatal(err)
	}
	if rep.AblD, err = AblationD(ctx, shared...); err != nil {
		t.Fatal(err)
	}
	if rep.AblI, err = AblationI(ctx, shared...); err != nil {
		t.Fatal(err)
	}
	if rep.Cons, err = AblationConsistency(ctx, shared...); err != nil {
		t.Fatal(err)
	}
	if rep.Packet, err = AblationPacket(ctx, base...); err != nil {
		t.Fatal(err)
	}
	return &rep
}

func markdown(r *Report) string {
	var b bytes.Buffer
	r.WriteMarkdown(&b)
	return b.String()
}

// checkFusedReport runs the fused report over ws at each parallelism level
// and demands the study-by-study composition's markdown byte for byte, and
// its packet rows exactly: the 8-byte row the fused report derives from the
// default-packet results must equal AblationPacket's live 8-byte run.
func checkFusedReport(t *testing.T, ws []workloads.Workload, pars ...int) {
	var opts []suite.Option
	if ws != nil {
		opts = append(opts, suite.WithWorkloads(ws...))
	}
	want := composeReport(t, 3, opts...)
	for _, par := range pars {
		got, err := RunReport(context.Background(), ws, par, nil)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := markdown(got), markdown(want); g != w {
			t.Fatalf("par %d: fused report differs from the composed one:\n--- fused\n%s\n--- composed\n%s", par, g, w)
		}
		if !reflect.DeepEqual(got.Packet, want.Packet) {
			t.Errorf("par %d: packet rows %+v, composed %+v", par, got.Packet, want.Packet)
		}
		for _, b := range got.Results.Benchmarks {
			if n := len(b.D) + len(b.I); n != 18 {
				t.Errorf("par %d: %s carries %d techniques, want the 18 of the union", par, b.Name, n)
			}
		}
	}
}

func TestRunReportMatchesComposed(t *testing.T) {
	if testing.Short() {
		t.Skip("full seven-benchmark report twice over; skipped in -short")
	}
	checkFusedReport(t, nil, 1, 3)
}

// TestRunReportMatchesComposedShort keeps the fused pool under the race
// detector: two kernels, every study, three packet widths, concurrent tasks.
func TestRunReportMatchesComposedShort(t *testing.T) {
	checkFusedReport(t, []workloads.Workload{workloads.FFT(), workloads.DCT()}, 3)
}

// TestReportTechniquesUnion: the default-packet task attaches the eight
// standard techniques plus the studies' ten others, each key once.
func TestReportTechniquesUnion(t *testing.T) {
	techs, err := reportTechniques()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, tech := range techs {
		k := tech.Domain.String() + "/" + string(tech.ID)
		if seen[k] {
			t.Errorf("duplicate %s", k)
		}
		seen[k] = true
		if tech.New == nil {
			t.Errorf("%s left unresolved", k)
		}
	}
	if len(techs) != 18 {
		t.Errorf("union holds %d techniques, want 18: %v", len(techs), seen)
	}
}

// TestUnionRejectsAdHocCollision: an ad hoc technique may not share its
// (domain, ID) with any other study's technique, registered or ad hoc;
// registered techniques merge, and a shared ID across domains is no clash.
func TestUnionRejectsAdHocCollision(t *testing.T) {
	adhoc := func(d suite.Domain, id suite.ID) []suite.Technique {
		return []suite.Technique{{ID: id, Domain: d, New: func(geo cache.Config) suite.Instance {
			return suite.MustLookup(d, id).New(geo)
		}}}
	}
	for name, lists := range map[string][][]suite.Technique{
		"ad hoc vs ad hoc":     {ablationDTechs(), adhoc(suite.Data, "two-phase[8]")},
		"ad hoc vs registered": {ablationDTechs(), adhoc(suite.Data, DMAB)},
		"registered vs ad hoc": {adhoc(suite.Data, DMAB), ablationDTechs()},
	} {
		if _, err := unionTechniques(lists...); err == nil {
			t.Errorf("%s: collision merged silently", name)
		}
	}
	got, err := unionTechniques(ablationDTechs(), ablationITechs(), packetTechs(),
		adhoc(suite.Fetch, "two-phase[8]"))
	if err != nil {
		t.Fatal(err)
	}
	if want := 7 + 5 + 1; len(got) != want {
		t.Errorf("union holds %d techniques, want %d", len(got), want)
	}
}

// TestRunReportCancel: a cancel mid-report surfaces as ctx.Err() and leaves
// no task goroutine behind.
func TestRunReportCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ws := []workloads.Workload{workloads.FFT(), workloads.DCT()}
	_, err := RunReport(ctx, ws, 2, func(string) { cancel() })
	if !errors.Is(err, context.Canceled) || err != ctx.Err() {
		t.Fatalf("err = %v, want ctx.Err()", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
