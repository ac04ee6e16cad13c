package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specrecon/internal/telemetry"
)

// runPerf drives the CLI the way main does and returns its exit code
// and both streams.
func runPerf(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// writeLedger appends one record per metric map to a fresh ledger the
// way the tools' -ledger flags do; configs[i], when given, is
// fingerprinted into record i.
func writeLedger(t *testing.T, tool string, configs []string, metrics ...map[string]float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	for i, m := range metrics {
		rec := telemetry.RunRecord{Time: telemetry.NowRFC3339(), Tool: tool, GitRev: "test", Metrics: m}
		if i < len(configs) {
			rec.Config = telemetry.Fingerprint(configs[i])
		}
		if err := telemetry.AppendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// TestAppendThenCheck drives the whole cycle: two appended records, then
// gates that hold and gates that trip.
func TestAppendThenCheck(t *testing.T) {
	ledger := writeLedger(t, "sweep", nil,
		map[string]float64{"wall_seconds": 40, "hit_rate": 0.9},
		map[string]float64{"wall_seconds": 42, "hit_rate": 0.9})
	// 42/40 = 1.05: inside a 10% gate, outside a 2% gate.
	code, stdout, _ := runPerf("ledger", "-ledger", ledger,
		"-gate", "wall_seconds <= 1.10", "-gate", "hit_rate >= 0.99")
	if code != 0 {
		t.Fatalf("lenient gates: exit %d\n%s", code, stdout)
	}
	code, stdout, _ = runPerf("ledger", "-ledger", ledger, "-gate", "wall_seconds <= 1.02")
	if code != 1 {
		t.Fatalf("tight gate: exit %d, want 1\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "FAIL wall_seconds") {
		t.Errorf("missing FAIL line:\n%s", stdout)
	}
}

// TestCheckFixtureRegression pins the committed planted-regression
// fixture: the 40% wall-time jump trips a 10% gate, the tool filter
// skips the interleaved figures record, and the steady metrics pass.
func TestCheckFixtureRegression(t *testing.T) {
	fixture := filepath.Join("testdata", "ledger_regression.jsonl")
	code, stdout, _ := runPerf("ledger", "-ledger", fixture, "-tool", "bench-sweep",
		"-gate", "wall_seconds <= 1.10")
	if code != 1 {
		t.Fatalf("planted regression not detected: exit %d\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "40 -> 56") {
		t.Errorf("diff not reported:\n%s", stdout)
	}
	code, stdout, _ = runPerf("ledger", "-ledger", fixture, "-tool", "bench-sweep",
		"-gate", "bench.IssueLoop/flat.ns_per_op <= 1.05",
		"-gate", "ccache_hit_rate >= 0.95")
	if code != 0 {
		t.Fatalf("steady metrics flagged: exit %d\n%s", code, stdout)
	}
}

// TestCheckVacuousSingleRecord: one record passes with a vacuous note.
func TestCheckVacuousSingleRecord(t *testing.T) {
	ledger := writeLedger(t, "sweep", nil, map[string]float64{"wall_seconds": 40})
	code, stdout, _ := runPerf("ledger", "-ledger", ledger, "-gate", "wall_seconds <= 1.10")
	if code != 0 {
		t.Fatalf("single record: exit %d\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "vacuous") {
		t.Errorf("vacuous pass not noted:\n%s", stdout)
	}
}

// TestConfigFingerprintIsolation: records under a different config
// fingerprint are not used as baselines.
func TestConfigFingerprintIsolation(t *testing.T) {
	ledger := writeLedger(t, "sweep", []string{"tasks=8", "tasks=4", "tasks=4"},
		map[string]float64{"wall_seconds": 10},
		map[string]float64{"wall_seconds": 40},
		map[string]float64{"wall_seconds": 41})
	// Against the tasks=4 baseline (40) the ratio is ~1.02; against the
	// tasks=8 record (10) it would be 4.1 and trip.
	code, stdout, _ := runPerf("ledger", "-ledger", ledger, "-gate", "wall_seconds <= 1.10")
	if code != 0 {
		t.Fatalf("config isolation: exit %d\n%s", code, stdout)
	}
}

// TestUsageAndErrorExits covers the ledger's exit-2 surface.
func TestUsageAndErrorExits(t *testing.T) {
	ledger := writeLedger(t, "sweep", nil, map[string]float64{"wall_seconds": 40})
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"tool\":\"x\",\"metrics\":{}}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"check-no-gates", []string{"-ledger", ledger}, "usage:"},
		{"stray-argument", []string{"-ledger", ledger, "-gate", "wall_seconds <= 1", "extra"}, "usage:"},
		{"retired-append-flag", []string{"-ledger", ledger, "-append"}, "not defined"},
		{"bad-gate-grammar", []string{"-ledger", ledger, "-gate", "wall_seconds"}, "bad gate"},
		{"bad-gate-op", []string{"-ledger", ledger, "-gate", "wall_seconds == 1"}, "unknown operator"},
		{"bad-gate-ratio", []string{"-ledger", ledger, "-gate", "wall_seconds <= fast"}, "bad gate"},
		{"unknown-metric", []string{"-ledger", ledger, "-gate", "no_such <= 1"}, "no metric"},
		{"missing-ledger", []string{"-ledger", filepath.Join(dir, "absent.jsonl"), "-gate", "a <= 1"}, "opening ledger"},
		{"malformed-ledger", []string{"-ledger", bad, "-gate", "a <= 1"}, "malformed"},
		{"no-matching-tool", []string{"-ledger", ledger, "-tool", "other", "-gate", "a <= 1"}, "no records"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runPerf(append([]string{"ledger"}, tc.args...)...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2\nstdout: %s\nstderr: %s", code, stdout, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr missing %q: %s", tc.want, stderr)
			}
			if strings.Contains(stdout+stderr, "perfledger") {
				t.Errorf("message still names the retired binary: %s%s", stdout, stderr)
			}
		})
	}
}
