package core

import (
	"strings"
	"testing"

	"specrecon/internal/analyze"
	"specrecon/internal/cfg"
	"specrecon/internal/dataflow"
	"specrecon/internal/ir"
	"specrecon/internal/workloads"
)

// lintWarnings is the static analyzer's warning-and-above slice:
// uninitialized reads (callees exempt: their low registers are
// parameters by convention), unreachable blocks, barrier pairing
// hygiene and joined barriers escaping through thread exits. The
// workloads and the compiler's own output must have none.
func lintWarnings(m *ir.Module) []analyze.Diagnostic {
	return analyze.Filter(analyze.Analyze(m, analyze.Options{}).Diags, analyze.SeverityWarning)
}

func TestLintCleanOnWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		inst := w.Build(workloads.BuildConfig{})
		if warnings := lintWarnings(inst.Module); len(warnings) != 0 {
			for _, wn := range warnings {
				t.Errorf("%s: %s", w.Name, wn)
			}
		}
	}
}

func TestLintCleanAfterCompilation(t *testing.T) {
	// The compiler's own barrier insertion must satisfy the barrier
	// hygiene lint: every joined barrier has a wait or cancel.
	for _, name := range []string{"rsbench", "xsbench", "callmicro"} {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		inst := w.Build(workloads.BuildConfig{})
		comp, err := Compile(inst.Module, SpecReconOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, wn := range lintWarnings(comp.Module) {
			t.Errorf("%s (compiled): %s", name, wn)
		}
	}
}

func TestLintUninitializedRead(t *testing.T) {
	m := ir.NewModule("bad")
	f := m.NewFunction("kernel")
	b := ir.NewBuilder(f)
	f.NRegs = 4
	e := f.NewBlock("e")
	b.SetBlock(e)
	uninit := ir.Reg(3)
	sum := b.AddI(uninit, 1) // read of r3 with no prior write
	_ = sum
	b.Exit()

	warnings := lintWarnings(m)
	found := false
	for _, w := range warnings {
		if strings.Contains(w.Msg, "read before written") && strings.Contains(w.Msg, "r3") {
			found = true
		}
	}
	if !found {
		t.Errorf("lint missed the uninitialized read: %v", warnings)
	}
}

func TestLintCalleeParamsExempt(t *testing.T) {
	// A called function reads its argument registers without writing
	// them; that is the calling convention, not a bug.
	m := buildFigure2c(false)
	for _, w := range lintWarnings(m) {
		if w.Fn == "foo" && strings.Contains(w.Msg, "read before written") {
			t.Errorf("callee parameter flagged: %s", w)
		}
	}
}

func TestLintUnreachableBlock(t *testing.T) {
	m, _ := ir.Parse(`module t memwords=8
func @k nregs=1 nfregs=0 {
e:
  exit
island:
  exit
}
`)
	warnings := lintWarnings(m)
	found := false
	for _, w := range warnings {
		if w.Block == "island" && strings.Contains(w.Msg, "unreachable") {
			found = true
		}
	}
	if !found {
		t.Errorf("lint missed the unreachable block: %v", warnings)
	}
}

func TestLintBarrierHygiene(t *testing.T) {
	m, err := ir.Parse(`module t memwords=8
func @k nregs=1 nfregs=0 {
e:
  join b0
  wait b1
  exit
}
`)
	if err != nil {
		t.Fatal(err)
	}
	warnings := lintWarnings(m)
	var joinedNoWait, waitedNoJoin bool
	for _, w := range warnings {
		if strings.Contains(w.Msg, "b0 is joined but never") {
			joinedNoWait = true
		}
		if strings.Contains(w.Msg, "b1 is waited on but never joined") {
			waitedNoJoin = true
		}
	}
	if !joinedNoWait || !waitedNoJoin {
		t.Errorf("barrier hygiene lint incomplete: %v", warnings)
	}
}

// buildConflictingRanges hand-builds the Figure 5 shape: b0 joined at
// entry and waited at the label block, b1 joined at the divergent branch
// and waited at its post-dominator, so the two live ranges overlap
// non-inclusively (b0's range starts before b1's and ends inside it).
func buildConflictingRanges(t *testing.T) *ir.Module {
	t.Helper()
	m, err := ir.Parse(`module conflict memwords=64
func @k nregs=3 nfregs=0 {
e:
  tid r0
  join b0
  and r1, r0, #1
  cbr r1, hot, cold
hot:
  join b1
  and r2, r0, #2
  cbr r2, label, meet
label:
  wait b0
  add r2, r2, #1
  br meet
meet:
  wait b1
  br out
cold:
  cancel b0
  br out
out:
  cancel b0
  exit
}
`)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLintBarriersDirectOnConflictingRanges(t *testing.T) {
	m := buildConflictingRanges(t)
	// Sanity: the module really holds a non-inclusive overlap.
	f := m.Funcs[0]
	conflicts := dataflow.FindConflicts(new(dataflow.Scratch), f, cfg.New(f, nil), map[int]bool{0: true})
	if len(conflicts) == 0 {
		t.Fatal("hand-built module should have b0 conflicting with b1")
	}
	// Conflicting live ranges are a deadlock hazard, not a pairing
	// defect: every barrier is joined and waited, so the pairing lint
	// stays quiet...
	if ws := analyze.Pairing(m, nil); len(ws) != 0 {
		t.Fatalf("complete pairing should produce no warnings, got %v", ws)
	}
	// ...until a wait is lost, which it must pinpoint by register.
	meet := f.BlockByName("meet")
	meet.RemoveAt(0) // drop "wait b1"
	ws := analyze.Pairing(m, nil)
	found := false
	for _, w := range ws {
		if strings.Contains(w.Msg, "b1 is joined but never waited or cancelled") {
			found = true
		}
	}
	if !found {
		t.Errorf("analyze.Pairing missed the lost wait: %v", ws)
	}
}

func TestLintExitPathRelease(t *testing.T) {
	// b0 is joined by all lanes but only the taken path waits; the
	// fall-through path carries the participation to exit.
	m, err := ir.Parse(`module t memwords=8
func @k nregs=2 nfregs=0 {
e:
  tid r0
  join b0
  and r1, r0, #1
  cbr r1, sync, leak
sync:
  wait b0
  exit
leak:
  exit
}
`)
	if err != nil {
		t.Fatal(err)
	}
	warnings := lintWarnings(m)
	found := false
	for _, w := range warnings {
		if w.Block == "leak" && strings.Contains(w.Msg, "b0 may still be joined when threads exit") {
			found = true
		}
	}
	if !found {
		t.Errorf("lint missed the exit-path leak: %v", warnings)
	}
	// The Figure 5 module from the conflicting-ranges test cancels b0 on
	// both exit paths, so it must stay clean under this check.
	for _, w := range lintWarnings(buildConflictingRanges(t)) {
		if strings.Contains(w.Msg, "may still be joined") {
			t.Errorf("false positive on released exit paths: %s", w)
		}
	}
}

func TestDOTExport(t *testing.T) {
	m := buildListing1(16, 4)
	dot := ir.DOT(m.FuncByName("kernel"))
	for _, want := range []string{"digraph", "\"entry\"", "\"expensive\"", "predict", "label=\"T\""} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}
