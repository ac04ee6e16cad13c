package main

import (
	"testing"

	"specrecon/internal/cli/clitest"
)

// TestCLI pins exit status and stdout of the schedule campaign at sizes
// a test can afford, serial so -v lines come out in cell order.
func TestCLI(t *testing.T) {
	clitest.Check(t, run, []clitest.Case{
		{Name: "sched-matrix", Args: []string{"-n", "4", "-seed", "42", "-j", "1", "-v", "-matrix", "-policies", "oldest,obe", "-seeds", "7", "-repros", "$TMP", "-stats", "-"}},
		{Name: "sched-defaults", Args: []string{"-n", "3", "-j", "1", "-repros", "$TMP"}},
		{Name: "sched-greedy", Args: []string{"-policies", "greedy"}, Code: 2, Stderr: "reference schedule"},
		{Name: "sched-bad-seeds", Args: []string{"-seeds", "1,x"}, Code: 2, Stderr: `seed "x"`},
	})
}

func TestFlagNames(t *testing.T) { clitest.FlagNames(t, run) }
