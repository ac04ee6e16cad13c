package main

import (
	"errors"
	"fmt"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"specrecon/internal/cli/clitest"
	"specrecon/internal/core"
	"specrecon/internal/diffcheck"
)

// plantPanic makes the check of every cell victim picks panic.
func plantPanic(t *testing.T, victim func(diffcheck.Kernel, diffcheck.Options) bool) {
	orig := versus
	versus = func(b *diffcheck.Baseline, x cell) diffcheck.Result {
		if victim(x.k, x.opts) {
			panic("planted")
		}
		return orig(b, x)
	}
	t.Cleanup(func() { versus = orig })
}

// TestEachBaselineLaunchesOnce: the sched axis makes one baseline per
// (kernel, schedule seed), whatever the policies and the worker count,
// and the repair axis one per kernel for all its planted faults.
func TestEachBaselineLaunchesOnce(t *testing.T) {
	orig := newBaseline
	t.Cleanup(func() { newBaseline = orig })
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-axis", "sched", "-n", "5", "-policies", "oldest,youngest,obe,random", "-seeds", "7,11"}, 5 * 2},
		{[]string{"-axis", "repair", "-n", "5", "-matrix=false"}, 5},
	} {
		for _, j := range []string{"1", "4"} {
			var mu sync.Mutex
			made := map[string]int{}
			newBaseline = func(k diffcheck.Kernel, opts diffcheck.Options) diffcheck.Baseline {
				mu.Lock()
				made[fmt.Sprintf("%s seed %d", k.Module.Name, k.Seed)]++
				mu.Unlock()
				return orig(k, opts)
			}
			if code, _, stderr := clitest.Exec(t, run, append(tc.args, "-j", j, "-repros", "$TMP")...); code != 0 {
				t.Fatalf("%v -j %s: exit %d\n%s", tc.args, j, code, stderr)
			}
			if len(made) != tc.want {
				t.Errorf("%v -j %s: %d distinct baselines, want %d", tc.args, j, len(made), tc.want)
			}
			for key, n := range made {
				if n != 1 {
					t.Errorf("%v -j %s: baseline %s made %d times", tc.args, j, key, n)
				}
			}
		}
	}
}

// TestPanickingCellIsContained: one cell whose check panics is one PANIC
// line, an unminimized repro and exit 1, and every other cell is still
// checked and counted — serial and on the pool.
func TestPanickingCellIsContained(t *testing.T) {
	reproLine := regexp.MustCompile(`(?m)^PANIC (\S+)(?: \[\S+\])?: task \d+ panicked: planted\n     repro: (\S+)$`)
	for _, tc := range []struct {
		name   string
		args   []string
		victim func(diffcheck.Kernel, diffcheck.Options) bool
	}{
		{"panic-spec", []string{"-n", "6", "-v"},
			func(k diffcheck.Kernel, _ diffcheck.Options) bool { return k.Name == "app002-stencil" }},
		{"panic-sched", []string{"-axis", "sched", "-n", "3", "-policies", "obe,random", "-seeds", "7", "-v"},
			func(k diffcheck.Kernel, _ diffcheck.Options) bool { return k.Name == "app001-stencil-random-s7" }},
		{"panic-repair", []string{"-axis", "repair", "-n", "5"},
			func(k diffcheck.Kernel, opts diffcheck.Options) bool {
				return k.Name == "app003-divergent-cond" && opts.Faults.DropJoin == 1
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plantPanic(t, tc.victim)
			var serial string
			for _, j := range []string{"1", "4"} {
				dir := t.TempDir()
				code, stdout, stderr := clitest.Exec(t, run, append(tc.args, "-j", j, "-repros", dir)...)
				if code != 1 {
					t.Errorf("-j %s: exit %d, want 1\nstderr: %s", j, code, stderr)
				}
				m := reproLine.FindAllStringSubmatch(stdout, -1)
				if len(m) != 1 {
					t.Fatalf("-j %s: want one PANIC line with its repro, got %d:\n%s", j, len(m), stdout)
				}
				repro, err := os.ReadFile(m[0][2])
				if err != nil {
					t.Fatal(err)
				}
				if want := fmt.Sprintf("; repro: kernel=%s stage=panic\n", m[0][1]); !strings.HasPrefix(string(repro), want) {
					t.Errorf("-j %s: repro starts %q, want %q", j, repro[:min(len(repro), 60)], want)
				}
				stdout = strings.ReplaceAll(stdout, dir, "$REPROS")
				if j == "1" {
					serial = stdout
					clitest.Golden(t, tc.name, stdout)
				} else if stdout != serial {
					t.Errorf("-j 4 stdout differs from -j 1:\n%s--- -j 1\n%s", stdout, serial)
				}
			}
		})
	}
}

// TestVerboseOutputIsInCellOrder: -v prints the same bytes whatever the
// worker count, on every axis.
func TestVerboseOutputIsInCellOrder(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "24", "-mutate", "1", "-max-issues", "200000"},
		{"-axis", "sched", "-n", "12", "-seeds", "7,11"},
		{"-axis", "repair", "-n", "24"},
	} {
		var serial string
		for _, j := range []string{"1", "8"} {
			code, stdout, stderr := clitest.Exec(t, run, append(args, "-v", "-j", j, "-repros", "$TMP")...)
			if code != 0 {
				t.Fatalf("%v -j %s: exit %d\n%s", args, j, code, stderr)
			}
			if j == "1" {
				serial = stdout
			} else if stdout != serial {
				t.Errorf("%v: -j 8 stdout differs from -j 1", args)
			}
		}
	}
}

// TestRepairVerdictNoTarget: a fault with nothing to plant on is a skip
// by the sentinel it wraps, and the verifier's unrelated "module has no
// functions" is a fallback however alike the words are.
func TestRepairVerdictNoTarget(t *testing.T) {
	x := cell{k: diffcheck.Kernel{Name: "k"}, opts: diffcheck.Options{Faults: core.FaultPlan{DropJoin: 1}}}
	noTarget := fmt.Errorf("core: pass %q: %w", "inject", fmt.Errorf("fault drop-join@1: %w such target", core.ErrNoFaultTarget))
	if bucket, line := repairVerdict(x, diffcheck.Result{Stage: diffcheck.StageVerify, Err: noTarget}); bucket != bucketSkip || line != "" {
		t.Errorf("no-target fault: bucket %q line %q, want a silent skip", bucket, line)
	}
	invalid := errors.New("core: input module invalid: module has no functions")
	if bucket, _ := repairVerdict(x, diffcheck.Result{Stage: diffcheck.StageVerify, Err: invalid}); bucket != bucketFallback {
		t.Errorf("invalid module: bucket %q, want %q", bucket, bucketFallback)
	}
}
