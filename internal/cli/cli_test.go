package cli

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specrecon/internal/core"
	"specrecon/internal/simt"
	"specrecon/internal/telemetry"
	"specrecon/internal/workloads"
)

// full registers every group, as specrecon and figures do between them.
func full(name string) (*App, *bytes.Buffer) {
	var stderr bytes.Buffer
	a := New(name, &bytes.Buffer{}, &stderr)
	a.LaunchFlags()
	a.SchedFlags()
	a.LivenessFlags()
	a.CacheFlags()
	a.ProfileFlags()
	a.TelemetryJSONFlag()
	a.LedgerFlag()
	return a, &stderr
}

// TestParseStatuses: the exit contract's flag half, in one place — a
// flag the set lacks, a value a flag rejects and a value a group rejects
// are all Usage, -h is OK, and a good line parses into the simulator's
// own types.
func TestParseStatuses(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		done   bool
		stderr string
	}{
		{[]string{"-bogus"}, Usage, true, "flag provided but not defined"},
		{[]string{"-grid", "many"}, Usage, true, "invalid value"},
		{[]string{"-policy", "bad"}, Usage, true, "tool: simt: unknown policy"},
		{[]string{"-sched", "bad"}, Usage, true, "tool: simt: unknown sched policy"},
		{[]string{"-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir", "cpu")}, Usage, true, "tool: open"},
		{[]string{"-h"}, OK, true, "-starve-limit"},
		{[]string{"-grid", "8", "-policy", "minpc", "-sched", "obe", "-sched-seed", "3", "-wall-budget", "2s"}, OK, false, ""},
	} {
		a, stderr := full("tool")
		code, done := a.Parse(tc.args)
		a.Close(&code)
		if code != tc.code || done != tc.done || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%v: code %d done %v stderr %q, want %d %v %q", tc.args, code, done, stderr, tc.code, tc.done, tc.stderr)
		}
		if !done {
			want := workloads.BuildConfig{Grid: 8, Policy: simt.PolicyMinPC, Sched: simt.SchedLooseFair, SchedSeed: 3}
			if a.Launch != want || a.WallBudget.Seconds() != 2 {
				t.Errorf("parsed %+v wall %v, want %+v 2s", a.Launch, a.WallBudget, want)
			}
		}
	}
}

// TestGroupsRegisterOnlyTheirFlags: a binary gets the flags of the groups
// it registers and no others — simtviz's three, figures' no -starve-limit.
func TestGroupsRegisterOnlyTheirFlags(t *testing.T) {
	a := New("tool", &bytes.Buffer{}, &bytes.Buffer{})
	a.GridFlags()
	a.SchedFlags()
	var names []string
	a.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if got, want := strings.Join(names, " "), "ctasize grid policy sched sched-seed sms"; got != want {
		t.Errorf("registered %q, want %q", got, want)
	}
}

// TestCloseFinishesAndRecord: the finishers write their files when Close
// runs, one that cannot turns an OK status into Usage, and Record builds
// the whole ledger line.
func TestCloseFinishesAndRecord(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	a, stderr := full("tool")
	code, done := a.Parse([]string{"-cache-stats", path("stats.json"), "-telemetry-json", path("metrics.json"),
		"-cpuprofile", path("cpu.pprof"), "-memprofile", path("mem.pprof"), "-ledger", path("runs.jsonl")})
	if done || a.Cache == nil || a.Reg == nil {
		t.Fatalf("Parse: code %d done %v cache %v reg %v\n%s", code, done, a.Cache, a.Reg, stderr)
	}
	m := workloads.All()[0].Build(workloads.BuildConfig{}).Module
	for range 2 {
		if _, err := a.Cache.Compile(m, core.BaselineOptions()); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Record("tool-x", map[string]int{"n": 1}, map[string]float64{"checks": 7}); err != nil {
		t.Fatal(err)
	}
	a.Close(&code)
	if code != OK {
		t.Errorf("Close: code %d\n%s", code, stderr)
	}
	for _, name := range []string{"stats.json", "metrics.json", "cpu.pprof", "mem.pprof"} {
		if st, err := os.Stat(path(name)); err != nil || st.Size() == 0 {
			t.Errorf("%s: not written (%v)", name, err)
		}
	}
	recs, err := telemetry.ReadLedger(path("runs.jsonl"))
	if err != nil || len(recs) != 1 {
		t.Fatalf("ledger: %v, %d records", err, len(recs))
	}
	r := recs[0]
	if r.Tool != "tool-x" || r.Time == "" || r.GitRev == "" || r.Config != telemetry.Fingerprint(map[string]int{"n": 1}) {
		t.Errorf("record identity: %+v", r)
	}
	if r.Metrics["checks"] != 7 || r.Metrics["ccache_hit_rate"] != 0.5 || r.Metrics["wall_seconds"] <= 0 || r.Metrics["ccache_hits_total"] != 1 {
		t.Errorf("record metrics: %v", r.Metrics)
	}

	a, stderr = full("tool")
	code, _ = a.Parse([]string{"-cache-stats", filepath.Join(dir, "no", "such", "dir", "stats.json")})
	if a.Close(&code); code != Usage || !strings.Contains(stderr.String(), "tool: open") {
		t.Errorf("unwritable -cache-stats: code %d stderr %q, want Usage and the reason", code, stderr)
	}
}
