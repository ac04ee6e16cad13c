package core

import (
	"errors"
	"strings"
	"testing"

	"specrecon/internal/ir"
	"specrecon/internal/simt"
)

func TestParseFaultPlanRoundTrip(t *testing.T) {
	cases := []string{
		"drop-cancel",
		"drop-cancel@3",
		"drop-wait@2",
		"drop-join",
		"drop-rejoin",
		"swap-waits",
		"skip-conflict",
		"drop-cancel@2+swap-waits+skip-conflict@4",
		"none",
	}
	for _, spec := range cases {
		p, err := ParseFaultPlan(spec)
		if err != nil {
			t.Fatalf("ParseFaultPlan(%q): %v", spec, err)
		}
		back, err := ParseFaultPlan(p.String())
		if err != nil || back != p {
			t.Errorf("round trip of %q: got %q -> %+v, err %v", spec, p.String(), back, err)
		}
	}
	for _, bad := range []string{"drop-everything", "drop-cancel@0", "drop-cancel@x"} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("ParseFaultPlan(%q) should fail", bad)
		}
	}
}

func TestInjectDropCancelRemovesOneCancel(t *testing.T) {
	m := buildListing1(16, 2)
	clean, err := Compile(m, SpecReconOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := SpecReconOptions()
	opts.Faults = FaultPlan{DropCancel: 1}
	faulted, err := Compile(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Stats.Cancels != clean.Stats.Cancels-1 {
		t.Errorf("cancels: clean %d, faulted %d, want a difference of exactly 1",
			clean.Stats.Cancels, faulted.Stats.Cancels)
	}
	found := false
	for _, r := range faulted.Remarks {
		if r.Pass == "inject" && strings.Contains(r.Msg, "drop-cancel@1") {
			found = true
		}
	}
	if !found {
		t.Error("inject pass should leave a remark naming the applied fault")
	}
}

func TestInjectMissingTargetIsError(t *testing.T) {
	// The baseline build of a straight-line kernel has no cancels at
	// all; asking to drop one must fail loudly, not silently no-op.
	m := ir.NewModule("plain")
	m.MemWords = 64
	f := m.NewFunction("k")
	b := ir.NewBuilder(f)
	b.SetBlock(f.NewBlock("e"))
	b.Store(b.Tid(), 0, b.Const(1))
	b.Exit()

	opts := BaselineOptions()
	opts.Faults = FaultPlan{DropCancel: 1}
	_, err := Compile(m, opts)
	if err == nil || !strings.Contains(err.Error(), "fault drop-cancel@1: module has no such target") {
		t.Fatalf("want missing-target error, got %v", err)
	}
	if !errors.Is(err, ErrNoFaultTarget) {
		t.Errorf("missing-target error does not wrap ErrNoFaultTarget through the pass manager: %v", err)
	}
	opts.Faults = FaultPlan{SwapWaits: true}
	if _, err := Compile(m, opts); !errors.Is(err, ErrNoFaultTarget) || !strings.Contains(err.Error(), "fault swap-waits: module has no waits") {
		t.Errorf("swap-waits without waits: got %v", err)
	}
	// The verifier's own "module has no functions" shares the words, not
	// the sentinel.
	_, err = Compile(ir.NewModule("empty"), opts)
	if err == nil || !strings.Contains(err.Error(), "module has no functions") || errors.Is(err, ErrNoFaultTarget) {
		t.Errorf("empty module: got %v, want an invalid-module error that is not ErrNoFaultTarget", err)
	}
}

func TestSkipConflictBeyondCountIsError(t *testing.T) {
	m := buildListing1(16, 2)
	opts := SpecReconOptions()
	opts.Faults = FaultPlan{SkipConflict: 99}
	if _, err := Compile(m, opts); err == nil || !strings.Contains(err.Error(), "skip-conflict@99") {
		t.Fatalf("want unfired-fault error, got %v", err)
	}
}

func TestSkipConflictReintroducesDeadlock(t *testing.T) {
	// Listing 1 has exactly the §4.3 conflict dynamic deconfliction
	// resolves; skipping its resolution must deadlock the warp again,
	// and the conflict must still be reported in the compilation.
	m := buildListing1(16, 2)
	opts := SpecReconOptions()
	opts.Faults = FaultPlan{SkipConflict: 1}
	comp, err := Compile(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Conflicts) == 0 {
		t.Fatal("conflict should still be recorded when its resolution is skipped")
	}
	_, err = simt.Run(comp.Module, simt.Config{Threads: ir.WarpWidth, Seed: 7, MaxIssues: 1 << 20})
	var dl *simt.DeadlockError
	var be *simt.BudgetError
	if !errors.As(err, &dl) && !errors.As(err, &be) {
		t.Fatalf("want deadlock or budget exhaustion under skipped deconfliction, got %v", err)
	}
}

func TestConflictOrderDeterministic(t *testing.T) {
	m := buildListing1(16, 2)
	first, err := Compile(m, SpecReconOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		next, err := Compile(m, SpecReconOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(next.Conflicts) != len(first.Conflicts) {
			t.Fatal("conflict count changed across identical compiles")
		}
		for j := range next.Conflicts {
			if next.Conflicts[j].A != first.Conflicts[j].A || next.Conflicts[j].B != first.Conflicts[j].B {
				t.Fatalf("conflict order changed across identical compiles: %v vs %v",
					next.Conflicts[j], first.Conflicts[j])
			}
		}
	}
}
