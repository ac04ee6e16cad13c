package main

import (
	"testing"

	"specrecon/internal/cli/clitest"
)

// TestCLI pins exit status and stdout of one figure, serial and on the
// worker pool, and the flag errors.
func TestCLI(t *testing.T) {
	clitest.Check(t, run, []clitest.Case{
		{Name: "fig7", Args: []string{"-fig", "7", "-j", "1"}},
		{Name: "fig8-grid", Args: []string{"-fig", "8", "-j", "2", "-grid", "2", "-ctasize", "64", "-sms", "2", "-sched", "oldest", "-compile-cache"}},
		{Name: "bad-policy", Args: []string{"-fig", "7", "-policy", "bad"}, Code: 1, Stderr: "unknown policy"},
		{Name: "bad-sched", Args: []string{"-fig", "7", "-sched", "bad"}, Code: 1, Stderr: "unknown sched policy"},
	})
}

func TestFlagNames(t *testing.T) { clitest.FlagNames(t, run) }
