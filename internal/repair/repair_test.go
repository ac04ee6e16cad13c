package repair_test

import (
	"strings"
	"testing"

	"specrecon/internal/analyze"
	"specrecon/internal/core"
	"specrecon/internal/diffcheck"
	"specrecon/internal/ir"
	"specrecon/internal/repair"
)

// matrixFault returns the named fault from the injection matrix.
func matrixFault(t *testing.T, name string) diffcheck.Fault {
	t.Helper()
	for _, f := range diffcheck.FaultMatrix() {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("fault %s not in the matrix", name)
	return diffcheck.Fault{}
}

// TestMatrixRepairOutcomes drives every statically-visible matrix fault
// through CompileSafe's repair-then-reverify stage and holds the
// outcome against the matrix's WantRepaired column in both directions:
// every repairable fault must come back as a clean repaired build that
// passes its differential proof obligation, and the designated
// unrepairable fault must still degrade to the PDOM fail-safe.
func TestMatrixRepairOutcomes(t *testing.T) {
	k := diffcheck.MatrixKernel()
	for _, f := range diffcheck.FaultMatrix() {
		if !f.WantStatic {
			continue
		}
		opts := core.SpecReconOptions()
		opts.Faults = f.Plan
		sc, err := core.CompileSafe(k.Module, opts)
		if err != nil {
			t.Errorf("%s: CompileSafe: %v", f.Name, err)
			continue
		}
		if !f.WantRepaired {
			if sc.Repaired != nil {
				t.Errorf("%s: repaired a fault the matrix pins as unrepairable", f.Name)
			}
			if !sc.FellBack {
				t.Errorf("%s: expected a PDOM fallback, got an accepted build", f.Name)
			}
			continue
		}
		if sc.FellBack {
			t.Errorf("%s: fell back (%v), want repaired", f.Name, sc.FallbackErr)
			continue
		}
		if sc.Repaired == nil {
			t.Errorf("%s: build accepted without repair; the fault did not bite", f.Name)
			continue
		}
		rep := sc.Repaired.Report
		if !rep.Clean() || len(rep.Edits) == 0 {
			t.Errorf("%s: repair report not clean (%s)", f.Name, rep.Summary())
		}
		// Proof obligation: the repaired speculative build must agree
		// with the un-repaired PDOM baseline on the memory image.
		res := diffcheck.Check(k, diffcheck.Options{
			Faults: f.Plan, AutoAnnotate: true, Verify: true, Repair: true,
		})
		if !res.OK {
			t.Errorf("%s: differential proof failed at %s: %v", f.Name, res.Stage, res.Err)
		}
		if !res.Repaired {
			t.Errorf("%s: differential check did not engage the repair pipeline", f.Name)
		}
	}
}

// TestUnrepairableGivesUpNoEdit pins the repair driver's stop reason on
// the matrix's designated unrepairable fault: SR1003 synthesizes no
// machine edit, so the fixpoint must give up immediately with "no-edit"
// and an untouched module.
func TestUnrepairableGivesUpNoEdit(t *testing.T) {
	k := diffcheck.MatrixKernel()
	opts := core.SpecReconOptions()
	opts.Faults = matrixFault(t, "drop-wait@1").Plan
	// The default pipeline with repair and the analyzer ahead of
	// allocation, as sasmvet -compiled -fix builds it: remaining
	// diagnostics do not fail the compile.
	pipe, err := core.ParsePipeline(strings.TrimSuffix(core.PipelineFor(opts).Spec(), "alloc") + "repair,analyze,alloc")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := core.CompilePipeline(k.Module, opts, pipe)
	if err != nil {
		t.Fatal(err)
	}
	rep := comp.RepairReport
	if rep == nil {
		t.Fatal("the repair pipeline produced no repair report")
	}
	if rep.GaveUp != repair.GaveUpNoEdit {
		t.Errorf("gave up %q, want %q", rep.GaveUp, repair.GaveUpNoEdit)
	}
	if len(rep.Edits) != 0 {
		t.Errorf("%d edits applied to an unrepairable build", len(rep.Edits))
	}
	if rep.Clean() {
		t.Error("report claims a clean fixpoint on an unrepairable build")
	}
}

// TestRepairCleanNoOp: an analyzer-clean module must pass through the
// driver untouched.
func TestRepairCleanNoOp(t *testing.T) {
	m := diffcheck.MatrixKernel().Module.Clone()
	before := ir.Print(m)
	rep := repair.Repair(m, repair.Options{})
	if len(rep.Edits) != 0 || !rep.Clean() || rep.GaveUp != repair.GaveUpNone {
		t.Fatalf("clean module perturbed: %s", rep.Summary())
	}
	if rep.Summary() != "no repair needed" {
		t.Errorf("summary %q, want %q", rep.Summary(), "no repair needed")
	}
	if got := ir.Print(m); got != before {
		t.Errorf("module mutated by a no-op repair:\n%s", got)
	}
}

// TestRepairDeletesOrphanWait exercises the SR1001 synthesizer on a raw
// module: a wait on a barrier nothing ever joins is an orphan, and the
// repair is to delete it.
func TestRepairDeletesOrphanWait(t *testing.T) {
	m := ir.NewModule("orphan")
	f := m.NewFunction("k")
	b := ir.NewBuilder(f)
	b.SetBlock(f.NewBlock("entry"))
	bar := b.Barrier()
	b.Wait(bar)
	b.Exit()

	rep := repair.Repair(m, repair.Options{})
	if !rep.Clean() || rep.GaveUp != repair.GaveUpNone {
		t.Fatalf("repair did not converge: %s", rep.Summary())
	}
	if len(rep.Edits) != 1 || rep.Edits[0].Edit.Kind != analyze.EditDelete {
		t.Fatalf("edits = %+v, want one delete", rep.Edits)
	}
	if rep.Edits[0].Code != analyze.CodeWaitNeverJoined {
		t.Errorf("edit attributed to %s, want %s", rep.Edits[0].Code, analyze.CodeWaitNeverJoined)
	}
	if out := ir.Print(m); strings.Contains(out, "wait") {
		t.Errorf("orphan wait survived repair:\n%s", out)
	}
	found := false
	for _, c := range rep.Resolved {
		if c == analyze.CodeWaitNeverJoined {
			found = true
		}
	}
	if !found {
		t.Errorf("Resolved = %v, want %s present", rep.Resolved, analyze.CodeWaitNeverJoined)
	}
}

// TestRepairIterationBudget pins the budget stop reason: swap-waits
// needs two fixpoint rounds (the first round's edits dissolve part of
// the tangle, the re-analysis drives the rest), so a one-iteration
// budget must give up with "budget" while the default budget converges.
func TestRepairIterationBudget(t *testing.T) {
	k := diffcheck.MatrixKernel()
	opts := core.SpecReconOptions()
	opts.Faults = matrixFault(t, "swap-waits").Plan
	comp, err := core.Diagnose(k.Module, opts)
	if err != nil {
		t.Fatal(err)
	}
	spec := func(int) analyze.BarrierClass { return analyze.ClassSpec }

	rep := repair.Repair(comp.Module.Clone(), repair.Options{ClassOf: spec})
	if !rep.Clean() || rep.Iterations < 2 {
		t.Fatalf("default budget: clean=%v after %d iteration(s), want clean in >= 2 (%s)",
			rep.Clean(), rep.Iterations, rep.Summary())
	}

	tight := repair.Repair(comp.Module.Clone(), repair.Options{ClassOf: spec, MaxIters: 1})
	if tight.GaveUp != repair.GaveUpBudget {
		t.Errorf("one-iteration budget gave up %q, want %q", tight.GaveUp, repair.GaveUpBudget)
	}
	if tight.Clean() {
		t.Error("one-iteration budget claims a clean fixpoint on a two-round repair")
	}
}

// TestRepairableTable pins the policy table: exactly the four codes
// with synthesizers answer true, and EditsFor filters by both severity
// and repairability.
func TestRepairableTable(t *testing.T) {
	want := map[analyze.Code]bool{
		analyze.CodeWaitNeverJoined:  true,
		analyze.CodeJoinedAtExit:     true,
		analyze.CodeLostRejoin:       true,
		analyze.CodeResidualConflict: true,
		analyze.CodeLostWait:         false,
	}
	for code, ok := range want {
		if repair.Repairable(code) != ok {
			t.Errorf("Repairable(%s) = %v, want %v", code, !ok, ok)
		}
	}
	edit := analyze.Edit{Kind: analyze.EditDelete, Fn: "k", Block: "entry", Index: 0}
	d := analyze.Diagnostic{Code: analyze.CodeWaitNeverJoined, Severity: analyze.SeverityError, Edits: []analyze.Edit{edit}}
	if got := repair.EditsFor(d); len(got) != 1 {
		t.Errorf("EditsFor(repairable error) = %v, want the attached edit", got)
	}
	d.Severity = analyze.SeverityWarning
	if got := repair.EditsFor(d); got != nil {
		t.Errorf("EditsFor(warning) = %v, want nil", got)
	}
	d.Severity = analyze.SeverityError
	d.Code = analyze.CodeLostWait
	if got := repair.EditsFor(d); got != nil {
		t.Errorf("EditsFor(SR1003) = %v, want nil", got)
	}
}
