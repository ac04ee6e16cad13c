package main

import (
	"path/filepath"
	"testing"

	"specrecon/internal/ccache"
	"specrecon/internal/cli/clitest"
	"specrecon/internal/telemetry"
)

// TestCLI pins exit status and stdout of the campaigns at sizes a test
// can afford, serial so -v lines come out in cell order.
func TestCLI(t *testing.T) {
	clitest.Check(t, run, []clitest.Case{
		{Name: "spec-matrix", Args: []string{"-n", "12", "-seed", "42", "-j", "1", "-matrix", "-repros", "$TMP"}},
		{Name: "spec-mutate", Args: []string{"-n", "4", "-mutate", "2", "-max-issues", "200000", "-j", "1", "-v", "-repros", "$TMP"}},
		{Name: "spec-sched", Args: []string{"-n", "6", "-j", "1", "-v", "-sched", "random", "-sched-seed", "3", "-starve-limit", "100000", "-policy", "minpc", "-repros", "$TMP"}},
		{Name: "repair", Args: []string{"-axis", "repair", "-n", "8", "-seed", "42", "-j", "1", "-v", "-repros", "$TMP"}},
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

// TestLedgerRecordPerAxis: every axis appends one record under its own
// tool name, carrying the shared metrics and its own buckets.
func TestLedgerRecordPerAxis(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "runs.jsonl")
	for _, axis := range []string{"spec", "sched", "repair"} {
		if code, _, stderr := clitest.Exec(t, run, "-axis", axis, "-n", "4", "-seeds", "7", "-repros", "$TMP", "-ledger", ledger); code != 0 {
			t.Fatalf("-axis %s: exit %d\n%s", axis, code, stderr)
		}
	}
	recs, err := telemetry.ReadLedger(ledger)
	if err != nil || len(recs) != 3 {
		t.Fatalf("ledger: %d records, err %v", len(recs), err)
	}
	for i, want := range []struct {
		tool    string
		metrics []string
	}{
		{"diffhunt-spec", []string{"checks", "findings", "skips", "panics", "wall_seconds"}},
		{"diffhunt-sched", []string{"checks", "findings", "panics", "wall_seconds", "ccache_hit_rate"}},
		{"diffhunt-repair", []string{"planted", "repaired", "fallbacks", "findings", "pre_repair_fallback_rate", "repair_fallback_rate"}},
	} {
		if recs[i].Tool != want.tool || recs[i].GitRev == "" || recs[i].Config == "" {
			t.Errorf("record %d: %+v, want tool %s with a revision and a fingerprint", i, recs[i], want.tool)
		}
		for _, name := range want.metrics {
			if _, ok := recs[i].Metrics[name]; !ok {
				t.Errorf("%s record lacks metric %q: %v", want.tool, name, recs[i].Metrics)
			}
		}
	}
}
