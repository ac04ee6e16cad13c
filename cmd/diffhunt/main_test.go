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
		{Name: "repair", Args: []string{"-repair", "-n", "8", "-seed", "42", "-j", "1", "-v", "-repros", "$TMP"}},
		{Name: "bad-policy", Args: []string{"-policy", "bad"}, Code: 2, Stderr: "unknown policy"},
		{Name: "bad-sched", Args: []string{"-sched", "bad"}, Code: 2, Stderr: "unknown sched policy"},
		{Name: "bad-flag", Args: []string{"-bogus"}, Code: 2, Stderr: "flag provided but not defined"},
	})
}

func TestFlagNames(t *testing.T) { clitest.FlagNames(t, run) }
