package main

import (
	"testing"

	"specrecon/internal/cli/clitest"
)

const listing1 = "../../testdata/repair/listing1.sasm"

// lostJoin waits on a barrier nothing joins: SR1001, an error.
const lostJoin = "testdata/lostjoin.sasm"

// TestCLI pins the 0/1/2 contract and stdout: clean input, an error
// diagnostic, -fix repairing and failing to repair, nothing to vet.
func TestCLI(t *testing.T) {
	clitest.Check(t, run, []clitest.Case{
		{Name: "workloads", Args: []string{"-workloads", "-eff"}},
		{Name: "corpus-compiled", Args: []string{"-q", "-compiled", "-eff-below", "0.8", "-corpus", "20", "-sarif", "-"}},
		// -eff-below is honoured raw and compiled alike: ten SR3003 notes
		// under 50 %, none at the default 0.
		{Name: "eff-below-raw", Args: []string{"-workloads", "-eff-below", "0.5"}},
		{Name: "eff-below-compiled", Args: []string{"-workloads", "-compiled", "-eff-below", "0.5"}},
		{Name: "eff-below-compiled-off", Args: []string{"-workloads", "-compiled"}},
		{Name: "eff-below-out-of-range", Args: []string{"-workloads", "-eff-below", "1.5"}, Code: 2, Stderr: "-eff-below 1.5"},
		{Name: "sr1001", Args: []string{lostJoin}, Code: 1},
		{Name: "sr1001-dry-run", Args: []string{"-fix-dry-run", "-fix-diff", lostJoin}},
		{Name: "fix-repaired", Args: []string{"-compiled", "-inject", "drop-cancel@1", "-fix", "-fix-diff", listing1}},
		{Name: "fix-unrepairable", Args: []string{"-q", "-compiled", "-inject", "drop-wait@1", "-fix", listing1}, Code: 1},
		{Name: "nothing-to-vet", Code: 2, Stderr: "nothing to vet"},
		{Name: "bad-fail-on", Args: []string{"-fail-on", "fatal", "-workloads"}, Code: 2, Stderr: "fatal"},
		{Name: "inject-needs-compiled", Args: []string{"-inject", "drop-cancel@1", listing1}, Code: 2, Stderr: "-inject requires -compiled"},
	})
}

func TestFlagNames(t *testing.T) { clitest.FlagNames(t, run) }
