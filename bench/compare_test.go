package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

// handBuilt returns a results file's content in which every workload
// reports value for every metric.
func handBuilt(value float64) *results {
	all := &results{Seed: 42, Seconds: 10, Workloads: map[string]workloadResults{}}
	for _, w := range allWorkloads {
		record := func(defs []metricDef, traced bool) *runRecord {
			ms := newMetricSet(defs)
			for _, d := range defs {
				ms.set(d.name, value)
			}
			return &runRecord{
				resultLine: resultLine{Correct: true, Attempted: 12, Metrics: ms.values},
				Workload:   w.name, Seed: 42, Traced: traced, ResultDigest: "d1",
			}
		}
		all.Workloads[w.name] = workloadResults{EndToEnd: record(endToEnd, false), PerLayer: record(perLayer, true)}
	}
	return all
}

func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, edit func(*results)) string {
		r := handBuilt(100)
		if edit != nil {
			edit(r)
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	setE2E := func(workload, metric string, v float64) func(*results) {
		return func(r *results) {
			r.Workloads[workload].EndToEnd.Metrics[metric] = metricValue{Value: v, Unit: "s"}
		}
	}
	base := write("base.json", nil)
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		b    string
		want int
	}{
		{"identical", write("same.json", nil), 0},
		{"within the bound", write("within.json", setE2E("sweep", "op_wall_s", 124)), 0},
		{"better by more than the bound", write("better.json", setE2E("sweep", "op_wall_s", 50)), 0},
		{"worse than the bound", write("worse.json", setE2E("sweep", "op_wall_s", 126)), 1},
		{"tighter bound on allocations", write("allocs.json", setE2E("campaign", "allocs_per_op", 104)), 1},
		{"digest differs", write("digest.json", func(r *results) { r.Workloads["grid_launch"].EndToEnd.ResultDigest = "d2" }), 1},
		{"traced digest differs", write("tdigest.json", func(r *results) { r.Workloads["grid_launch"].PerLayer.ResultDigest = "d2" }), 1},
		{"exact count moved", write("count.json", func(r *results) {
			r.Workloads["figures_all"].PerLayer.Metrics["simt.sim_issues"] = metricValue{Value: 101, Unit: "count"}
		}), 1},
		{"timing layer metric moved", write("layer.json", func(r *results) {
			r.Workloads["figures_all"].PerLayer.Metrics["simt.issue_ns"] = metricValue{Value: 500, Unit: "ns"}
		}), 0},
		{"failed ops", write("failed.json", func(r *results) { r.Workloads["sweep"].EndToEnd.Failed = 1 }), 1},
		{"workload missing", write("missing.json", func(r *results) { delete(r.Workloads, "driver_matrix") }), 2},
		{"metric missing", write("nometric.json", func(r *results) { delete(r.Workloads["sweep"].EndToEnd.Metrics, "setup_s") }), 2},
		{"not JSON", garbage, 2},
		{"no such file", filepath.Join(dir, "absent.json"), 2},
	} {
		if got := compareFiles(base, tc.b, io.Discard, io.Discard); got != tc.want {
			t.Errorf("%s: exit code %d, want %d", tc.name, got, tc.want)
		}
	}
	if got := compareFiles(garbage, base, io.Discard, io.Discard); got != 2 {
		t.Errorf("unreadable base: exit code %d, want 2", got)
	}
}
