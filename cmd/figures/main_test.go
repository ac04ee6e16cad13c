package main

import (
	"os"
	"path/filepath"
	"testing"

	"specrecon/internal/cli/clitest"
	"specrecon/internal/harness"
	"specrecon/internal/workloads"
)

// TestCLI pins exit status and stdout of every figure, serial and on the
// worker pool, under the default and a non-default launch shape, and the
// flag errors.
func TestCLI(t *testing.T) {
	clitest.Check(t, run, []clitest.Case{
		{Name: "fig7", Args: []string{"-fig", "7", "-j", "1"}},
		{Name: "fig8-grid", Args: []string{"-fig", "8", "-j", "2", "-grid", "2", "-ctasize", "64", "-sms", "2", "-sched", "oldest"}},
		{Name: "fig9", Args: []string{"-fig", "9", "-j", "1"}},
		{Name: "fig10-apps60", Args: []string{"-fig", "10", "-apps", "60", "-j", "1"}},
		{Name: "fig7-grid-oldest", Args: []string{"-fig", "7", "-grid", "4", "-ctasize", "64", "-sms", "2", "-sched", "oldest", "-j", "1"}},
		{Name: "bad-policy", Args: []string{"-fig", "7", "-policy", "bad"}, Code: 2, Stderr: "unknown policy"},
		{Name: "bad-sched", Args: []string{"-fig", "7", "-sched", "bad"}, Code: 2, Stderr: "unknown sched policy"},
		{Name: "negative-apps", Args: []string{"-fig", "10", "-apps", "-4"}, Code: 2, Stderr: "-apps -4: the corpus size cannot be negative"},
		{Name: "negative-sms", Args: []string{"-fig", "7", "-grid", "2", "-sms", "-1"}, Code: 2, Stderr: "-sms -1: the count cannot be negative"},
	})
}

func TestFlagNames(t *testing.T) { clitest.FlagNames(t, run) }

// countSuite counts the measurements of figures 7 and 8 and keeps the
// rows of the last.
func countSuite(t *testing.T) (calls *int, rows *[]harness.Comparison) {
	calls, rows = new(int), new([]harness.Comparison)
	t.Cleanup(func() { measureSuite = harness.Figure7 })
	measureSuite = func(cfg workloads.BuildConfig, jobs int) ([]harness.Comparison, error) {
		*calls++
		var err error
		*rows, err = harness.Figure7(cfg, jobs)
		return *rows, err
	}
	return calls, rows
}

// TestFigure7BuildsEachWorkloadOnce: figure 7 measures each of its eight
// workloads once, and every row is one baseline and one speculative
// build: 16 builds.
func TestFigure7BuildsEachWorkloadOnce(t *testing.T) {
	calls, rows := countSuite(t)
	if code, _, stderr := clitest.Exec(t, run, "-fig", "7", "-j", "1"); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	names := map[string]bool{}
	for _, r := range *rows {
		if r.BaseCompile <= 0 || r.SpecCompile <= 0 {
			t.Errorf("%s: compile times %v and %v, want one build a side", r.Name, r.BaseCompile, r.SpecCompile)
		}
		names[r.Name] = true
	}
	if *calls != 1 || len(*rows) != 8 || len(names) != 8 {
		t.Errorf("-fig 7: %d measurements of %d rows over %d workloads, want one of 8 over 8", *calls, len(*rows), len(names))
	}
}

// TestAllMeasuresTheSuiteOnce: figures 7 and 8 are two views of one
// measurement, so -fig all measures the suite once, as -fig 7 and -fig 8
// each do.
func TestAllMeasuresTheSuiteOnce(t *testing.T) {
	calls, _ := countSuite(t)
	for fig, want := range map[string]int{"all": 1, "7": 1, "8": 1, "9": 0, "10": 0} {
		*calls = 0
		if code, _, stderr := clitest.Exec(t, run, "-fig", fig, "-apps", "20", "-j", "1"); code != 0 {
			t.Fatalf("-fig %s: exit %d\n%s", fig, code, stderr)
		}
		if *calls != want {
			t.Errorf("-fig %s measured the suite %d times, want %d", fig, *calls, want)
		}
	}
}

// TestFinishersRunOnFailure: a run that fails (the trace directory
// cannot be made) exits 1 and still writes the heap profile.
func TestFinishersRunOnFailure(t *testing.T) {
	dir := t.TempDir()
	file, prof := filepath.Join(dir, "file"), filepath.Join(dir, "mem.pprof")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := clitest.Exec(t, run, "-fig", "none", "-trace-dir", filepath.Join(file, "traces"), "-memprofile", prof)
	if code != 1 {
		t.Errorf("exit %d, want 1\nstderr: %s", code, stderr)
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Errorf("heap profile not written (%v)", err)
	}
}
