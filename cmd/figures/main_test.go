package main

import (
	"os"
	"path/filepath"
	"testing"

	"specrecon/internal/ccache"
	"specrecon/internal/cli/clitest"
)

// TestCLI pins exit status and stdout of every figure, serial and on the
// worker pool, under the default and a non-default launch shape, and the
// flag errors.
func TestCLI(t *testing.T) {
	clitest.Check(t, run, []clitest.Case{
		{Name: "fig7", Args: []string{"-fig", "7", "-j", "1"}},
		{Name: "fig8-grid", Args: []string{"-fig", "8", "-j", "2", "-grid", "2", "-ctasize", "64", "-sms", "2", "-sched", "oldest", "-compile-cache"}},
		{Name: "fig9", Args: []string{"-fig", "9", "-j", "1"}},
		{Name: "fig10-apps60", Args: []string{"-fig", "10", "-apps", "60", "-j", "1"}},
		{Name: "fig7-grid-oldest", Args: []string{"-fig", "7", "-grid", "4", "-ctasize", "64", "-sms", "2", "-sched", "oldest", "-j", "1"}},
		{Name: "bad-policy", Args: []string{"-fig", "7", "-policy", "bad"}, Code: 2, Stderr: "unknown policy"},
		{Name: "bad-sched", Args: []string{"-fig", "7", "-sched", "bad"}, Code: 2, Stderr: "unknown sched policy"},
	})
}

func TestFlagNames(t *testing.T) { clitest.FlagNames(t, run) }

// TestCacheStatsImplyCache: -cache-stats alone turns the cache on, and
// figure 7 compiles each of its eight workloads under both builds once:
// 16 misses, no hit.
func TestCacheStatsImplyCache(t *testing.T) {
	stats := filepath.Join(t.TempDir(), "stats.json")
	if code, _, stderr := clitest.Exec(t, run, "-fig", "7", "-j", "1", "-cache-stats", stats); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	var st ccache.Stats
	if clitest.ReadJSON(t, stats, &st); st.Misses != 16 || st.Hits != 0 {
		t.Errorf("-fig 7 -cache-stats: %+v, want 16 misses and 0 hits", st)
	}
}

// TestAllMeasuresTheSuiteOnce: figures 7 and 8 are two views of one
// measurement, so -fig all compiles what -fig 7, -fig 9 and -fig 10
// compile between them and nothing twice over for figure 8.
func TestAllMeasuresTheSuiteOnce(t *testing.T) {
	lookups := func(fig string) int64 {
		stats := filepath.Join(t.TempDir(), "stats.json")
		if code, _, stderr := clitest.Exec(t, run, "-fig", fig, "-apps", "20", "-j", "1", "-cache-stats", stats); code != 0 {
			t.Fatalf("-fig %s: exit %d\n%s", fig, code, stderr)
		}
		var st ccache.Stats
		clitest.ReadJSON(t, stats, &st)
		return st.Hits + st.Misses
	}
	if all, parts := lookups("all"), lookups("7")+lookups("9")+lookups("10"); all != parts || lookups("8") != lookups("7") {
		t.Errorf("-fig all made %d compile lookups, figures 7, 9 and 10 apart make %d", all, parts)
	}
}

// TestFinishersRunOnFailure: a run that fails (the trace directory
// cannot be made) exits 1 and still writes the cache statistics.
func TestFinishersRunOnFailure(t *testing.T) {
	dir := t.TempDir()
	file, stats := filepath.Join(dir, "file"), filepath.Join(dir, "stats.json")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := clitest.Exec(t, run, "-fig", "none", "-trace-dir", filepath.Join(file, "traces"), "-cache-stats", stats)
	if code != 1 {
		t.Errorf("exit %d, want 1\nstderr: %s", code, stderr)
	}
	var st ccache.Stats
	clitest.ReadJSON(t, stats, &st)
}
