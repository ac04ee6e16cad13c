package main

import (
	"testing"

	"specrecon/internal/cli/clitest"
)

// TestCLI pins exit status and stdout of both builds' timelines.
func TestCLI(t *testing.T) {
	clitest.Check(t, run, []clitest.Case{
		{Name: "baseline", Args: []string{"-kernel", "rsbench", "-rows", "12"}},
		{Name: "spec-hist-grid", Args: []string{"-kernel", "rsbench", "-mode", "spec", "-rows", "12", "-hist", "-grid", "2", "-ctasize", "32", "-sms", "2"}},
		{Name: "unknown-kernel", Args: []string{"-kernel", "nope"}, Code: 2, Stderr: "unknown workload"},
	})
}

func TestFlagNames(t *testing.T) { clitest.FlagNames(t, run) }
