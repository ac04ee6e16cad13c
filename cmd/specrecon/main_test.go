package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"specrecon/internal/cli/clitest"
	"specrecon/internal/core"
	"specrecon/internal/diffcheck"
	"specrecon/internal/harness"
	"specrecon/internal/workloads"
)

// TestCLI pins exit status and stdout of the modes make check and the
// README lean on.
func TestCLI(t *testing.T) {
	clitest.Check(t, run, []clitest.Case{
		{Name: "run", Args: []string{"-kernel", "rsbench"}},
		{Name: "run-sasm", Args: []string{"-kernel", "../../testdata/iterdelay.sasm"}},
		{Name: "run-grid-stack", Args: []string{"-kernel", "xsbench", "-model", "stack", "-grid", "8", "-ctasize", "64", "-sms", "4", "-workers", "2"}},
		{Name: "run-auto-safe", Args: []string{"-kernel", "rsbench", "-mode", "auto", "-safe", "-remarks"}},
		{Name: "diagnostics", Args: []string{"-kernel", "rsbench", "-mode", "spec", "-diagnostics", "-sched", "oldest", "-starve-limit", "1000000"}},
		{Name: "sweep", Args: []string{"-kernel", "xsbench", "-sweep", "-threads", "64"}},
		{Name: "sweep-mismatch", Args: []string{"-kernel", "testdata/ballotdep.sasm", "-sweep"}, Code: 1, Stderr: "threshold 1: ballotdep: memory word 0 differs"},
		{Name: "timeline-baseline", Args: []string{"-kernel", "rsbench", "-mode", "baseline", "-threads", "32", "-tasks", "4", "-timeline", "12"}},
		{Name: "timeline-spec-grid", Args: []string{"-kernel", "rsbench", "-mode", "spec", "-tasks", "4", "-grid", "2", "-ctasize", "32", "-sms", "2", "-timeline", "12"}},
		{Name: "timeline-both", Args: []string{"-kernel", "../../testdata/iterdelay.sasm", "-timeline", "8"}},
		{Name: "diffcheck-ok", Args: []string{"-kernel", "rsbench", "-diffcheck"}},
		{Name: "diffcheck-hard-barrier", Args: []string{"-kernel", "rsbench", "-tasks", "2", "-diffcheck", "-threshold", "0"}},
		{Name: "diffcheck-finding", Args: []string{"-kernel", "rsbench", "-diffcheck", "-inject", "skip-release@1"}, Code: 1},
		{Name: "diffcheck-bad-repro", Args: []string{"-kernel", "testdata/badrepro.sasm", "-diffcheck"}, Code: 2, Stderr: "testdata/badrepro.sasm:4: repro-seed: "},
		{Name: "list", Args: []string{"-list"}},
		{Name: "list-passes", Args: []string{"-list-passes"}},
		{Name: "list-passes-timeline", Args: []string{"-kernel", "rsbench", "-list-passes", "-timeline", "3"}, Code: 2, Stderr: "-kernel is not read by -list-passes"},
		{Name: "list-passes-unread", Args: []string{"-list-passes", "-timeline", "3"}, Code: 2, Stderr: "-timeline is not read by -list-passes"},
		{Name: "list-profile", Args: []string{"-list", "-profile"}, Code: 2, Stderr: "-profile is not read by -list"},
		{Name: "no-kernel", Code: 2, Stderr: "-kernel is required"},
		{Name: "unknown-kernel", Args: []string{"-kernel", "nope"}, Code: 2, Stderr: "unknown workload"},
		{Name: "bad-policy", Args: []string{"-kernel", "rsbench", "-policy", "bad"}, Code: 2, Stderr: "unknown policy"},
		{Name: "bad-passes", Args: []string{"-kernel", "rsbench", "-passes", "pdom,bogus"}, Code: 2, Stderr: `unknown pass "bogus"`},
		{Name: "bad-pass-fault", Args: []string{"-kernel", "rsbench", "-mode", "spec", "-passes", "inject=bogus"}, Code: 2, Stderr: `specrecon: core: pass "inject": unknown fault "bogus" (want `},
		{Name: "bad-inject", Args: []string{"-kernel", "rsbench", "-inject", "bogus"}, Code: 2, Stderr: `specrecon: -inject: unknown fault "bogus" (want `},
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
// writes the heap profile.
func TestFinishersRunOnFailure(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "mem.pprof")
	code, _, stderr := clitest.Exec(t, run, "-kernel", "rsbench", "-diffcheck", "-inject", "skip-release@1",
		"-memprofile", prof)
	if code != 1 {
		t.Errorf("exit %d, want 1\nstderr: %s", code, stderr)
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Errorf("heap profile not written (%v)", err)
	}
}

// TestSweepBuildsTheBaselineOnce: -sweep's ten threshold points share
// one baseline build, so the sweep is 11 builds.
func TestSweepBuildsTheBaselineOnce(t *testing.T) {
	var rows []harness.Comparison
	t.Cleanup(func() { thresholdSweep = harness.ThresholdSweep })
	thresholdSweep = func(inst *workloads.Instance, opts core.Options, thresholds []int, jobs int) ([]harness.Comparison, error) {
		var err error
		rows, err = harness.ThresholdSweep(inst, opts, thresholds, jobs)
		return rows, err
	}
	if code, _, stderr := clitest.Exec(t, run, "-kernel", "xsbench", "-sweep", "-threads", "64"); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if len(rows) != 10 {
		t.Fatalf("%d threshold points, want 10", len(rows))
	}
	for _, r := range rows {
		if r.BaseCompile != rows[0].BaseCompile || r.SpecCompile <= 0 {
			t.Errorf("threshold %d: baseline compile %v (point 1: %v), speculative %v; want the one baseline build and a build of its own",
				r.Threshold, r.BaseCompile, rows[0].BaseCompile, r.SpecCompile)
		}
	}
}

// TestDiffcheckSafeVerifies: -safe puts the verifier into -diffcheck's
// speculative build, so a dropped wait that every run survives is a
// verify finding.
func TestDiffcheckSafeVerifies(t *testing.T) {
	for _, tc := range []struct {
		safe   bool
		code   int
		stdout string
	}{{false, 0, "diffcheck: ok"}, {true, 1, "diffcheck: FAIL at verify: "}} {
		args := []string{"-kernel", "rsbench", "-tasks", "2", "-diffcheck", "-inject", "drop-wait@1", fmt.Sprintf("-safe=%v", tc.safe)}
		if code, stdout, stderr := clitest.Exec(t, run, args...); code != tc.code || !strings.HasPrefix(stdout, tc.stdout) {
			t.Errorf("-safe=%v: exit %d, stdout %q, want %d and %q\n%s", tc.safe, code, stdout, tc.code, tc.stdout, stderr)
		}
	}
}

// TestDiffcheckReplaysTheBudget: a repro of a budget finding replays
// under the issue budget it records, not the checker's default.
func TestDiffcheckReplaysTheBudget(t *testing.T) {
	k, opts := diffcheck.MatrixKernel(), diffcheck.Options{MaxIssues: 1537}
	res := diffcheck.Check(k, opts)
	path, err := diffcheck.WriteRepro(t.TempDir(), k, opts, res)
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := clitest.Exec(t, run, "-kernel", path, "-diffcheck")
	if want := "diffcheck: FAIL at run-spec: "; code != 1 || !strings.HasPrefix(stdout, want) || !strings.Contains(stdout, "(1537)") {
		t.Errorf("exit %d, stdout %q, want 1 and %q with the recorded budget\n%s", code, stdout, want, stderr)
	}
}

// TestDiffcheckFileTakesLaunchFlags: a .sasm file checked under launch
// flags is launched as the run mode launches it, not as the file records.
func TestDiffcheckFileTakesLaunchFlags(t *testing.T) {
	launch := []string{"-kernel", "../../testdata/iterdelay.sasm", "-threads", "128", "-seed", "9"}
	_, ran, _ := clitest.Exec(t, run, append(launch, "-mode", "baseline")...)
	_, checked, stderr := clitest.Exec(t, run, append(launch, "-diffcheck")...)
	var cycles int64
	if _, err := fmt.Sscanf(checked, "diffcheck: ok (base cycles %d,", &cycles); err != nil || !strings.Contains(ran, fmt.Sprintf("cycles=%-10d", cycles)) {
		t.Errorf("-diffcheck reported %q (%v), the run mode %q\n%s", checked, err, ran, stderr)
	}
}

// TestDiffcheckFileYieldsToEveryFlagGiven: a flag the command line sets
// replaces what a .sasm file records even at the flag's default value,
// so the file checked under it is the bare kernel checked under what the
// file records with the flag given last.
func TestDiffcheckFileYieldsToEveryFlagGiven(t *testing.T) {
	const kernel = "../../testdata/iterdelay.sasm"
	src, err := os.ReadFile(kernel)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ file, given []string }{
		{[]string{"deconflict", "static"}, []string{"-deconflict", "dynamic"}},
		{[]string{"threshold", "8"}, []string{"-threshold", "-1"}},
		{[]string{"sched", "oldest", "starve-limit", "1"}, []string{"-sched", "greedy"}},
		{[]string{"policy", "minpc"}, []string{"-policy", "maxgroup"}},
		{[]string{"sched", "oldest", "starve-limit", "1"}, []string{"-starve-limit", "0"}},
		{[]string{"wall-budget", "1ns"}, []string{"-wall-budget", "0"}},
	} {
		header, bare := "; repro-threads: 64\n", []string{"-kernel", kernel, "-diffcheck", "-threads", "64"}
		for i := 0; i < len(tc.file); i += 2 {
			header += fmt.Sprintf("; repro-%s: %s\n", tc.file[i], tc.file[i+1])
			bare = append(bare, "-"+tc.file[i], tc.file[i+1])
		}
		path := filepath.Join(t.TempDir(), "k.sasm")
		if err := os.WriteFile(path, append([]byte(header), src...), 0o644); err != nil {
			t.Fatal(err)
		}
		_, recorded, _ := clitest.Exec(t, run, "-kernel", path, "-diffcheck")
		_, given, stderr := clitest.Exec(t, run, append([]string{"-kernel", path, "-diffcheck"}, tc.given...)...)
		_, want, _ := clitest.Exec(t, run, append(bare, tc.given...)...)
		if given != want || given == recorded {
			t.Errorf("%v under %v: checked %q, want %q (the file alone: %q)\n%s", tc.file, tc.given, given, want, recorded, stderr)
		}
	}
}

// TestModesReadOrRefuseEveryFlag: -diffcheck and -sweep return before
// the per-run loop, so for each flag the binary has, a mode either reads
// it (the run exits 0, or 1 on the finding -inject plants) or exits 2
// naming the flag and the mode. -list and -list-passes are modes of
// their own and come first; they read nothing but themselves and the
// profiles, and refuse every other flag.
func TestModesReadOrRefuseEveryFlag(t *testing.T) {
	dir := t.TempDir()
	file := func(name string) string { return filepath.Join(dir, name) }
	// One usable value per flag; "" gives a boolean flag bare.
	values := map[string]string{
		"cpuprofile": file("cpu.pprof"), "ctasize": "32", "deconflict": "static", "diagnostics": "",
		"diffcheck": "", "dot": "", "dump-ir-after": "pdom", "grid": "2", "inject": "skip-release@1",
		"interleave": "", "kernel": "rsbench", "list": "", "list-passes": "", "memprofile": file("mem.pprof"),
		"mode": "spec", "model": "stack", "passes": "pdom,alloc", "policy": "minpc", "print": "",
		"print-pass-stats": "", "profile": "", "profile-json": file("profile.json"), "profile-top": "3",
		"remarks": "", "safe": "", "sample-stride": "64", "sched": "oldest", "sched-seed": "3", "seed": "5",
		"sms": "2", "starve-limit": "1000000", "sweep": "", "tasks": "2", "threads": "64", "threshold": "8",
		"timeline": "4", "trace-out": file("trace.json"), "verify-each": "", "wall-budget": "1m", "workers": "2",
	}
	perRun := "dot dump-ir-after interleave mode model passes print print-pass-stats profile profile-json profile-top remarks sample-stride timeline trace-out verify-each"
	refused := map[string]string{
		"diffcheck": perRun + " sweep",
		// The sweep sets the threshold itself and compiles, launches and
		// compares its points without faults, the fail-safe pipeline or
		// the liveness monitors.
		"sweep": perRun + " inject safe starve-limit threshold wall-budget",
	}
	golden, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	for mode, names := range refused {
		for _, name := range strings.Fields(string(golden)) {
			value, ok := values[name]
			if !ok {
				t.Fatalf("-%s has no value here: give it one, and decide which modes read it", name)
			}
			args := []string{"-kernel", "rsbench", "-tasks", "2", "-" + mode, "-" + name}
			if value != "" {
				args[len(args)-1] += "=" + value
			}
			code, _, stderr := clitest.Exec(t, run, args...)
			switch {
			case name == "list" || name == "list-passes":
				if want := "is not read by -" + name; code != 2 || !strings.Contains(stderr, want) {
					t.Errorf("-%s -%s: exit %d, want 2 and %q\n%s", mode, name, code, want, stderr)
				}
			case name == "diffcheck" && mode == "sweep":
				if code != 2 || !strings.Contains(stderr, "-sweep is not read by -diffcheck") {
					t.Errorf("-sweep -diffcheck: exit %d, want 2 naming -sweep\n%s", code, stderr)
				}
			case slices.Contains(strings.Fields(names), name):
				if want := fmt.Sprintf("-%s is not read by -%s", name, mode); code != 2 || !strings.Contains(stderr, want) {
					t.Errorf("-%s -%s: exit %d, want 2 and %q\n%s", mode, name, code, want, stderr)
				}
			case code == 2 || code == 1 && name != "inject":
				t.Errorf("-%s -%s: exit %d, want the mode to run with it\n%s", mode, name, code, stderr)
			}
		}
	}
	for _, mode := range []string{"list", "list-passes"} {
		for _, name := range strings.Fields(string(golden)) {
			args := []string{"-" + mode, "-" + name}
			if value := values[name]; value != "" {
				args[1] += "=" + value
			}
			code, _, stderr := clitest.Exec(t, run, args...)
			want := fmt.Sprintf("-%s is not read by -%s", name, mode)
			switch name {
			case mode, "cpuprofile", "memprofile":
				want = ""
			case "list":
				want = "-list-passes is not read by -list"
			}
			if want == "" && code != 0 || want != "" && (code != 2 || !strings.Contains(stderr, want)) {
				t.Errorf("-%s -%s: exit %d, want %q\n%s", mode, name, code, want, stderr)
			}
		}
	}
}
