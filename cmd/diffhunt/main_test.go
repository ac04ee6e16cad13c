package main

import (
	"path/filepath"
	"testing"

	"specrecon/internal/ccache"
	"specrecon/internal/cli/clitest"
)

// TestCLI pins exit status and stdout of the campaigns at sizes a test
// can afford, serial so -v lines come out in cell order.
func TestCLI(t *testing.T) {
	clitest.Check(t, run, []clitest.Case{
		{Name: "spec-matrix", Args: []string{"-n", "12", "-seed", "42", "-j", "1", "-matrix", "-repros", "$TMP"}},
		{Name: "spec-mutate", Args: []string{"-n", "4", "-mutate", "2", "-max-issues", "200000", "-j", "1", "-v", "-repros", "$TMP"}},
		{Name: "spec-sched", Args: []string{"-n", "6", "-j", "1", "-v", "-sched", "random", "-sched-seed", "3", "-starve-limit", "100000", "-policy", "minpc", "-repros", "$TMP"}},
		{Name: "repair", Args: []string{"-axis", "repair", "-n", "8", "-seed", "42", "-j", "1", "-v", "-repros", "$TMP"}},
		// The repair axis's headline number (DESIGN.md §16), on the
		// default worker pool: 57 planted, 41 repaired, 16 fallback,
		// 100.0% -> 28.1%.
		{Name: "repair-120", Args: []string{"-axis", "repair", "-n", "120", "-seed", "42", "-compile-cache", "-repros", "$TMP"}},
		{Name: "sched-matrix", Args: []string{"-axis", "sched", "-n", "4", "-seed", "42", "-j", "1", "-v", "-matrix", "-policies", "oldest,obe", "-seeds", "7", "-repros", "$TMP", "-stats", "-"}},
		{Name: "sched-defaults", Args: []string{"-axis", "sched", "-n", "3", "-j", "1", "-repros", "$TMP"}},
		{Name: "sched-greedy", Args: []string{"-axis", "sched", "-policies", "greedy"}, Code: 2, Stderr: "reference schedule"},
		{Name: "sched-bad-seeds", Args: []string{"-axis", "sched", "-seeds", "1,x"}, Code: 2, Stderr: `seed "x"`},
		{Name: "bad-axis", Args: []string{"-axis", "model"}, Code: 2, Stderr: `unknown axis "model"`},
		{Name: "bad-policy", Args: []string{"-policy", "bad"}, Code: 2, Stderr: "unknown policy"},
		{Name: "bad-sched", Args: []string{"-sched", "bad"}, Code: 2, Stderr: "unknown sched policy"},
		{Name: "bad-flag", Args: []string{"-bogus"}, Code: 2, Stderr: "flag provided but not defined"},
	})
}

func TestFlagNames(t *testing.T) { clitest.FlagNames(t, run) }

// TestCacheStatsImplyCache: -cache-stats alone turns the cache on.
func TestCacheStatsImplyCache(t *testing.T) {
	stats := filepath.Join(t.TempDir(), "stats.json")
	if code, _, stderr := clitest.Exec(t, run, "-n", "4", "-repros", "$TMP", "-cache-stats", stats); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	var st ccache.Stats
	if clitest.ReadJSON(t, stats, &st); st.Misses == 0 {
		t.Errorf("-cache-stats without -compile-cache recorded no lookup: %+v", st)
	}
}
