package diffcheck

import (
	"errors"
	"testing"

	"specrecon/internal/simt"
)

// TestSchedFaultMatrix: every planted scheduler-sensitive fault is
// greedy-clean, analyzer-clean as claimed, and caught at exactly the
// pinned layer under its policy.
func TestSchedFaultMatrix(t *testing.T) {
	matrix := SchedFaultMatrix()
	if len(matrix) < 2 {
		t.Fatalf("sched matrix has %d faults, want >= 2", len(matrix))
	}
	layers := map[Layer]bool{}
	for _, o := range RunSchedMatrix() {
		layers[o.Fault.WantLayer] = true
		t.Run(o.Fault.Name, func(t *testing.T) {
			if !o.GreedyClean {
				t.Errorf("not greedy-clean: the fault is a plain bug, not a schedule-dependent one")
			}
			if o.Got != o.Fault.WantLayer {
				t.Errorf("caught at %s, pinned to %s (result: %v)", o.Got, o.Fault.WantLayer, o.Result)
			}
			if o.AnalyzerClean != o.Fault.StaticallyClean {
				t.Errorf("analyzer clean = %v, claimed %v", o.AnalyzerClean, o.Fault.StaticallyClean)
			}
		})
	}
	// The matrix must exercise the distinct liveness layers, not three
	// flavors of the same detector.
	for _, want := range []Layer{LayerStarvation, LayerDeadlock, LayerMismatch} {
		if !layers[want] {
			t.Errorf("no fault pinned to layer %s", want)
		}
	}
}

// TestSchedFaultReproRoundTrip: a scheduler-sensitive finding minimizes
// and round-trips through a .sasm repro that replays at the same layer
// under the recorded schedule.
func TestSchedFaultReproRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, f := range SchedFaultMatrix() {
		k := f.Kernel()
		opts := f.Options()
		small, res := Minimize(k, opts)
		if res.OK {
			t.Fatalf("%s: minimized kernel no longer fails", f.Name)
		}
		if got := ClassifyFailure(res); got != f.WantLayer {
			t.Fatalf("%s: minimized failure moved to layer %s (want %s): %v", f.Name, got, f.WantLayer, res)
		}
		path, err := WriteRepro(dir, small, opts, res)
		if err != nil {
			t.Fatal(err)
		}
		loaded, recorded, err := LoadRepro(path)
		if err != nil {
			t.Fatal(err)
		}
		if recorded.Sched != f.Sched || recorded.StarveLimit != f.StarveLimit {
			t.Fatalf("%s: schedule not recorded: %+v", f.Name, recorded)
		}
		recorded.MaxIssues = 1 << 17
		replay := Check(loaded, recorded)
		if got := ClassifyFailure(replay); got != f.WantLayer {
			t.Fatalf("%s: repro replays at layer %s, want %s: %v", f.Name, got, f.WantLayer, replay)
		}
	}
}

// TestClassifyFailure covers the classifier's corners directly.
func TestClassifyFailure(t *testing.T) {
	if got := ClassifyFailure(Result{OK: true, Stage: StageOK}); got != LayerNone {
		t.Errorf("ok result -> %s, want none", got)
	}
	if got := ClassifyFailure(Result{Stage: StageCompare}); got != LayerMismatch {
		t.Errorf("compare -> %s, want mismatch", got)
	}
	if got := ClassifyFailure(Result{Stage: StageRunSpec, Err: &simt.StarvationError{}}); got != LayerStarvation {
		t.Errorf("starvation -> %s", got)
	}
	if got := ClassifyFailure(Result{Stage: StageRunSpec, Err: &simt.BudgetError{}}); got != LayerBudget {
		t.Errorf("budget -> %s", got)
	}
	if got := ClassifyFailure(Result{Stage: StageCompileSpec, Err: errors.New("x")}); got != LayerOther {
		t.Errorf("compile error -> %s, want other", got)
	}
}
