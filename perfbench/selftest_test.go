package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestHarness runs every workload, untraced and traced, at reduced size
// (one geometry, one kernel, a few queries) against the recorded goldens,
// then checks that a wrong golden fails the run. Run it from perfbench/
// with `go test ./...`; it builds wmx from the checkout first.
func TestHarness(t *testing.T) {
	dir := t.TempDir()
	wmx := filepath.Join(dir, "wmx")
	build := exec.Command("go", "build", "-o", wmx, "waymemo/cmd/wmx")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build wmx: %v\n%s", err, out)
	}
	small := func(workload string, trace bool, golden string) *result {
		t.Helper()
		res, err := run(config{workload: workload, seed: 7, seconds: 1e-9, trace: trace, small: true,
			root: "..", out: t.TempDir(), wmx: wmx, golden: golden})
		if err != nil {
			t.Fatalf("%s trace=%v: %v", workload, trace, err)
		}
		return res
	}

	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			res := small(w, trace, "goldens.json")
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) == 0 {
				t.Errorf("%s trace=%v: no metrics", w, trace)
			}
		}
	}

	// A golden that no longer matches the program must fail the run.
	g, err := loadGoldens("goldens.json")
	if err != nil {
		t.Fatal(err)
	}
	g.ReportSHA256 = "0" + g.ReportSHA256[1:]
	g.Points["DCT/512x2x32"] = "0"
	blob, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad-goldens.json")
	if err := os.WriteFile(bad, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		if res := small(w, false, bad); res.Correct || res.Failed == 0 {
			t.Errorf("%s with a wrong golden: correct=%v failed=%d, want a failure", w, res.Correct, res.Failed)
		}
	}
}
