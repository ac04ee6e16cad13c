package harness

import (
	"reflect"
	"strings"
	"testing"

	"specrecon/internal/simt"
	"specrecon/internal/workloads"
)

// TestSchedSensitivity: the annotated benchmarks are schedule-clean —
// every (policy, threshold) point of the sweep terminates, matches the
// greedy baseline's memory (checked inside the driver), and never
// starves; and the per-policy tables carry every point.
func TestSchedSensitivity(t *testing.T) {
	policies := []simt.SchedPolicy{simt.SchedGreedyConverge, simt.SchedOldestFirst, simt.SchedRandom}
	thresholds := []int{8, 32}
	grid, err := SchedSensitivity("pathtracer", workloads.BuildConfig{Tasks: 4}, policies, thresholds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != len(policies) {
		t.Fatalf("got %d policies, want %d", len(grid), len(policies))
	}
	for pol, rows := range grid {
		if len(rows) != len(thresholds) {
			t.Fatalf("%s: %d rows, want %d", pol, len(rows), len(thresholds))
		}
		for _, r := range rows {
			if r.Starved {
				t.Errorf("%s threshold %d: starved: %s", pol, r.Threshold, r.Err)
			}
			if r.Cycles == 0 || r.Eff == 0 {
				t.Errorf("%s threshold %d: empty point %+v", pol, r.Threshold, r)
			}
			if r.AvgResident <= 0 || r.IssueEff <= 0 {
				t.Errorf("%s threshold %d: occupancy not sampled: %+v", pol, r.Threshold, r)
			}
		}
	}

	var md strings.Builder
	WriteSchedSensitivity(&md, "pathtracer", policies, grid)
	for _, want := range []string{"### policy greedy", "### policy oldest", "### policy random", "| 32 |"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}

// TestSchedSensitivityParallelMatchesSerial extends the pool contract
// to the scheduler sweep: many workers, byte-identical grid.
func TestSchedSensitivityParallelMatchesSerial(t *testing.T) {
	policies := []simt.SchedPolicy{simt.SchedOldestFirst, simt.SchedLooseFair}
	thresholds := []int{16, 32}
	serial, err := SchedSensitivity("rsbench", workloads.BuildConfig{Tasks: 4}, policies, thresholds, 1)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	parallel, err := SchedSensitivity("rsbench", workloads.BuildConfig{Tasks: 4}, policies, thresholds, 8)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("sched sweep with 8 workers differs from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}
