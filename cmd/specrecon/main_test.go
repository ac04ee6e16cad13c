package main

import (
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"

	"specrecon/internal/ccache"
	"specrecon/internal/cli/clitest"
)

// TestCLI pins exit status and stdout of the modes make check and the
// README lean on.
func TestCLI(t *testing.T) {
	clitest.Check(t, run, []clitest.Case{
		{Name: "run", Args: []string{"-kernel", "rsbench"}},
		{Name: "run-sasm", Args: []string{"-kernel", "../../testdata/iterdelay.sasm"}},
		{Name: "run-grid-stack", Args: []string{"-kernel", "xsbench", "-model", "stack", "-grid", "8", "-ctasize", "64", "-sms", "4", "-workers", "2"}},
		{Name: "run-auto-safe", Args: []string{"-kernel", "rsbench", "-mode", "auto", "-safe", "-remarks", "-compile-cache"}},
		{Name: "diagnostics", Args: []string{"-kernel", "rsbench", "-mode", "spec", "-diagnostics", "-sched", "oldest", "-starve-limit", "1000000"}},
		{Name: "sweep", Args: []string{"-kernel", "xsbench", "-sweep", "-threads", "64"}},
		{Name: "sweep-mismatch", Args: []string{"-kernel", "testdata/ballotdep.sasm", "-sweep"}, Code: 1, Stderr: "threshold 1: ballotdep: memory word 0 differs"},
		{Name: "timeline-baseline", Args: []string{"-kernel", "rsbench", "-mode", "baseline", "-threads", "32", "-tasks", "4", "-timeline", "12"}},
		{Name: "timeline-spec-grid", Args: []string{"-kernel", "rsbench", "-mode", "spec", "-tasks", "4", "-grid", "2", "-ctasize", "32", "-sms", "2", "-timeline", "12"}},
		{Name: "timeline-both", Args: []string{"-kernel", "../../testdata/iterdelay.sasm", "-timeline", "8"}},
		{Name: "diffcheck-ok", Args: []string{"-kernel", "rsbench", "-diffcheck"}},
		{Name: "diffcheck-finding", Args: []string{"-kernel", "rsbench", "-diffcheck", "-inject", "skip-release@1"}, Code: 1},
		{Name: "diffcheck-bad-repro", Args: []string{"-kernel", "testdata/badrepro.sasm", "-diffcheck"}, Code: 2, Stderr: "testdata/badrepro.sasm:4: repro-seed: "},
		{Name: "list", Args: []string{"-list"}},
		{Name: "list-passes", Args: []string{"-list-passes"}},
		{Name: "no-kernel", Code: 2, Stderr: "-kernel is required"},
		{Name: "unknown-kernel", Args: []string{"-kernel", "nope"}, Code: 2, Stderr: "unknown workload"},
		{Name: "bad-policy", Args: []string{"-kernel", "rsbench", "-policy", "bad"}, Code: 2, Stderr: "unknown policy"},
		{Name: "bad-passes", Args: []string{"-kernel", "rsbench", "-passes", "pdom,bogus"}, Code: 2, Stderr: `unknown pass "bogus"`},
		{Name: "safe-passes", Args: []string{"-kernel", "rsbench", "-safe", "-passes", "pdom,alloc"}, Code: 2, Stderr: "-safe compiles through its own fail-safe pipeline and cannot be combined with -passes"},
		{Name: "safe-verify-each", Args: []string{"-kernel", "rsbench", "-safe", "-mode", "spec", "-verify-each"}, Code: 2, Stderr: "-safe compiles"},
		{Name: "safe-dump-ir-after", Args: []string{"-kernel", "rsbench", "-safe", "-mode", "spec", "-dump-ir-after", "pdom"}, Code: 2, Stderr: "-dump-ir-after"},
		{Name: "negative-profile-top", Args: []string{"-kernel", "rsbench", "-profile", "-profile-top", "-3"}, Code: 2, Stderr: "-profile-top -3"},
		{Name: "negative-timeline", Args: []string{"-kernel", "rsbench", "-timeline", "-1"}, Code: 2, Stderr: "-timeline -1: the row count cannot be negative"},
		{Name: "diffcheck-bad-mode", Args: []string{"-kernel", "rsbench", "-diffcheck", "-mode", "bogus"}, Code: 2, Stderr: `unknown mode "bogus"`},
		{Name: "sweep-bad-mode", Args: []string{"-kernel", "rsbench", "-sweep", "-mode", "bogus"}, Code: 2, Stderr: `unknown mode "bogus"`},
		{Name: "diagnostics-bad-deconflict", Args: []string{"-kernel", "rsbench", "-diagnostics", "-deconflict", "bogus"}, Code: 2, Stderr: `unknown deconfliction mode "bogus"`},
		{Name: "threshold-out-of-range", Args: []string{"-kernel", "rsbench", "-threshold", "99"}, Code: 2, Stderr: "-threshold 99"},
		{Name: "negative-sample-stride", Args: []string{"-kernel", "rsbench", "-sample-stride", "-5"}, Code: 2, Stderr: "-sample-stride -5"},
		{Name: "interleave-grid", Args: []string{"-kernel", "rsbench", "-interleave", "-grid", "4"}, Code: 2, Stderr: "-interleave makes a flat launch one wave and cannot be combined with -grid"},
		{Name: "negative-tasks", Args: []string{"-kernel", "rsbench", "-tasks", "-2"}, Code: 2, Stderr: "-tasks -2: the count cannot be negative"},
		{Name: "negative-threads", Args: []string{"-kernel", "rsbench", "-threads", "-3"}, Code: 2, Stderr: "-threads -3: the count cannot be negative"},
		{Name: "negative-ctasize", Args: []string{"-kernel", "rsbench", "-grid", "2", "-ctasize", "-5"}, Code: 2, Stderr: "-ctasize -5: the count cannot be negative"},
		{Name: "skip-release-stack", Args: []string{"-kernel", "rsbench", "-mode", "spec", "-model", "stack", "-inject", "skip-release@1"}, Code: 2, Stderr: "-inject skip-release cannot be combined with -model stack"},
		{Name: "no-telemetry-json", Args: []string{"-kernel", "rsbench", "-telemetry-json", "x"}, Code: 2, Stderr: "flag provided but not defined: -telemetry-json"},
	})
}

func TestFlagNames(t *testing.T) { clitest.FlagNames(t, run) }

// TestPassStatsColumnsAlign: every row of the -print-pass-stats table is
// as wide as its header, barrier-safety (the longest pass name, in the
// pipeline only under -safe) included.
func TestPassStatsColumnsAlign(t *testing.T) {
	code, stdout, stderr := clitest.Exec(t, run, "-kernel", "rsbench", "-mode", "spec", "-safe", "-print-pass-stats")
	if code != 0 || !strings.Contains(stdout, "  barrier-safety ") {
		t.Fatalf("exit %d, barrier-safety row missing\n%s%s", code, stdout, stderr)
	}
	width := 0
	for _, line := range strings.Split(stdout, "\n") {
		if !strings.HasPrefix(line, "  ") {
			continue
		}
		if n := utf8.RuneCountInString(line); width == 0 {
			width = n
		} else if n != width {
			t.Errorf("row is %d columns wide, the header %d: %q", n, width, line)
		}
	}
}

// TestFinishersRunOnFailure: a -diffcheck finding exits 1 and still
// writes the cache statistics, and asking for the statistics alone got a
// cache to take them from.
func TestFinishersRunOnFailure(t *testing.T) {
	stats := filepath.Join(t.TempDir(), "stats.json")
	code, _, stderr := clitest.Exec(t, run, "-kernel", "rsbench", "-diffcheck", "-inject", "skip-release@1",
		"-cache-stats", stats)
	if code != 1 {
		t.Errorf("exit %d, want 1\nstderr: %s", code, stderr)
	}
	var st ccache.Stats
	clitest.ReadJSON(t, stats, &st)
	if st.Misses == 0 {
		t.Errorf("-cache-stats without -compile-cache recorded no lookup: %+v", st)
	}
}

// TestSweepCompilesThroughTheCache: -sweep's baseline and ten threshold
// builds are lookups in the command's compile cache.
func TestSweepCompilesThroughTheCache(t *testing.T) {
	stats := filepath.Join(t.TempDir(), "stats.json")
	if code, _, stderr := clitest.Exec(t, run, "-kernel", "xsbench", "-sweep", "-threads", "64", "-cache-stats", stats); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	var st ccache.Stats
	if clitest.ReadJSON(t, stats, &st); st.Misses != 11 {
		t.Errorf("cache recorded %d misses over the sweep, want 11: %+v", st.Misses, st)
	}
}
