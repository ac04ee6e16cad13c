package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The gate's fixtures are the real thing: the repo's BENCHMARK.json and
// the records make check gates against, copied with one planted change.
const (
	benchmarkJSON = "../../BENCHMARK.json"
	committedDir  = "../../testdata/perfgate"
)

// plant copies the committed records into a fresh directory, passing the
// named workload's record through edit (nil: drop that record).
func plant(t *testing.T, workload string, edit func(rec map[string]any)) string {
	t.Helper()
	dir := t.TempDir()
	files, err := filepath.Glob(filepath.Join(committedDir, "run.*.e2e.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed records in %s (%v)", committedDir, err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(f) == "run."+workload+".e2e.json" {
			if edit == nil {
				continue
			}
			var rec map[string]any
			if err := json.Unmarshal(data, &rec); err != nil {
				t.Fatal(err)
			}
			edit(rec)
			if data, err = json.Marshal(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// scale multiplies the named metrics of a record by f.
func scale(f float64, metrics ...string) func(map[string]any) {
	return func(rec map[string]any) {
		for _, m := range metrics {
			v := rec["metrics"].(map[string]any)[m].(map[string]any)
			v["value"] = v["value"].(float64) * f
		}
	}
}

func TestGateExitCodes(t *testing.T) {
	unchanged := func(map[string]any) {}
	for _, tc := range []struct {
		name      string
		benchmark string
		workload  string
		edit      func(map[string]any)
		code      int
		want      string // in stdout on 0/1, in stderr on 2
	}{
		{"identical", benchmarkJSON, "sweep", unchanged, 0, "6 workloads hold"},
		{"allocs +2% is inside the 3% bound", benchmarkJSON, "campaign", scale(1.02, "allocs_per_op", "alloc_mb_per_op"), 0, "6 workloads hold"},
		{"alloc_mb_per_op -2% is inside the 3% bound", benchmarkJSON, "campaign", scale(0.98, "alloc_mb_per_op"), 0, "6 workloads hold"},
		{"alloc_mb_per_op -50% passes and calls the record stale", benchmarkJSON, "observed_grid", scale(0.5, "alloc_mb_per_op"), 0, "stale observed_grid alloc_mb_per_op: the committed record is 100.0% above this run, more than the 3% bound; run `make perf-baseline`"},
		{"allocs_per_op +5%", benchmarkJSON, "observed_grid", scale(1.05, "allocs_per_op"), 1, "FAIL observed_grid allocs_per_op"},
		{"alloc_mb_per_op +5%", benchmarkJSON, "grid_launch", scale(1.05, "alloc_mb_per_op"), 1, "FAIL grid_launch alloc_mb_per_op"},
		{"heap_live_mb +20%", benchmarkJSON, "sweep", scale(1.20, "heap_live_mb"), 1, "FAIL sweep heap_live_mb"},
		{"changed digest", benchmarkJSON, "driver_matrix", func(r map[string]any) { r["result_digest"] = "0000000000000000" }, 1, "FAIL driver_matrix result_digest"},
		{"failed op", benchmarkJSON, "figures_all", func(r map[string]any) { r["failed"], r["correct"] = 1.0, false }, 1, "FAIL figures_all failed ops"},
		{"time metrics 2x worse", benchmarkJSON, "grid_launch", scale(2, "setup_s", "op_wall_s", "cpu_s_per_op"), 0, "6 workloads hold"},
		{"missing workload", benchmarkJSON, "campaign", nil, 2, "workload campaign"},
		{"record without the metric", benchmarkJSON, "sweep", func(r map[string]any) { delete(r["metrics"].(map[string]any), "heap_live_mb") }, 2, "no usable heap_live_mb"},
		{"unreadable BENCHMARK.json", "absent.json", "sweep", unchanged, 2, "absent.json"},
		{"BENCHMARK.json that is not one", filepath.Join(committedDir, "run.sweep.e2e.json"), "sweep", unchanged, 2, "lists no workloads"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runPerf("gate", tc.benchmark, committedDir, plant(t, tc.workload, tc.edit))
			if code != tc.code {
				t.Fatalf("exit = %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, stdout, stderr)
			}
			out := stdout
			if tc.code == 2 {
				out = stderr
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("output missing %q:\n%s", tc.want, out)
			}
			// One planted change fails one check, not its neighbours, and
			// only a record beaten by more than its bound is called stale.
			if tc.code == 1 && strings.Count(stdout, "FAIL") != 1 {
				t.Errorf("want exactly one FAIL line:\n%s", stdout)
			}
			if stale := strings.Count(stdout, "stale "); stale != strings.Count(tc.want, "stale ") {
				t.Errorf("%d stale lines:\n%s", stale, stdout)
			}
		})
	}
	// A malformed record is an unusable input too, on either side.
	dir := plant(t, "", nil)
	if err := os.WriteFile(filepath.Join(dir, "run.sweep.e2e.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runPerf("gate", benchmarkJSON, dir, committedDir); code != 2 || !strings.Contains(stderr, "workload sweep") {
		t.Errorf("malformed base record: exit %d, stderr %s", code, stderr)
	}
}
