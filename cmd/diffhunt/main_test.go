package main

import (
	"testing"

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
		{Name: "repair-120", Args: []string{"-axis", "repair", "-n", "120", "-seed", "42", "-repros", "$TMP"}},
		// The reference campaigns, on the default worker pool: 500 spec
		// checks with the fault matrix, and 60 kernels under four
		// adversarial policies x two schedule seeds with the scheduler
		// fault matrix and the stats record.
		{Name: "spec-500", Args: []string{"-n", "500", "-seed", "42", "-matrix", "-repros", "$TMP"}},
		{Name: "sched-60", Args: []string{"-axis", "sched", "-n", "60", "-seed", "42", "-matrix", "-policies", "oldest,youngest,obe,random", "-seeds", "7,11", "-repros", "$TMP", "-stats", "-"}},
		{Name: "sched-matrix", Args: []string{"-axis", "sched", "-n", "4", "-seed", "42", "-j", "1", "-v", "-matrix", "-policies", "oldest,obe", "-seeds", "7", "-repros", "$TMP", "-stats", "-"}},
		{Name: "sched-defaults", Args: []string{"-axis", "sched", "-n", "3", "-j", "1", "-repros", "$TMP"}},
		{Name: "sched-greedy", Args: []string{"-axis", "sched", "-policies", "greedy"}, Code: 2, Stderr: "reference schedule"},
		{Name: "sched-bad-seeds", Args: []string{"-axis", "sched", "-seeds", "1,x"}, Code: 2, Stderr: `seed "x"`},
		{Name: "bad-axis", Args: []string{"-axis", "model"}, Code: 2, Stderr: `unknown axis "model"`},
		{Name: "negative-n", Args: []string{"-n", "-5"}, Code: 2, Stderr: "-n -5: the corpus size cannot be negative"},
		{Name: "bad-policy", Args: []string{"-policy", "bad"}, Code: 2, Stderr: "unknown policy"},
		{Name: "bad-sched", Args: []string{"-sched", "bad"}, Code: 2, Stderr: "unknown sched policy"},
		{Name: "bad-flag", Args: []string{"-bogus"}, Code: 2, Stderr: "flag provided but not defined"},
	})
}

func TestFlagNames(t *testing.T) { clitest.FlagNames(t, run) }
