package core

import (
	"strings"
	"testing"

	"specrecon/internal/cfg"
	"specrecon/internal/ir"
)

func cfgNew(t *testing.T, f *ir.Function) *cfg.Info {
	t.Helper()
	return cfg.New(f)
}

// findBarrierOps returns (blockName, instrIndex) pairs of all operations
// on the given barrier.
func findBarrierOps(f *ir.Function, bar int, op ir.Opcode) []string {
	var out []string
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == op && in.Bar == bar {
				out = append(out, b.Name)
			}
		}
	}
	return out
}

// compileListing1 lowers the Listing 1 kernel without barrier allocation
// so tests can inspect virtual barrier ids directly.
func compileListing1(t *testing.T, opts Options) (*Compilation, *ir.Function) {
	t.Helper()
	m := buildListing1(64, 8)
	opts.SkipAllocation = true
	comp, err := Compile(m, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return comp, comp.Module.FuncByName("kernel")
}

// barriersByKind indexes the compilation's barriers.
func barriersByKind(comp *Compilation, kind BarrierKind) []int {
	var out []int
	for _, bi := range comp.Barriers {
		if bi.Kind == kind {
			out = append(out, bi.ID)
		}
	}
	return out
}

// TestPDOMInsertion checks the baseline pass: a join at the divergent
// branch block and a wait at its immediate post-dominator; the uniform
// loop branch gets no barrier.
func TestPDOMInsertion(t *testing.T) {
	comp, f := compileListing1(t, BaselineOptions())
	pdoms := barriersByKind(comp, KindPDOM)
	if len(pdoms) != 1 {
		t.Fatalf("want exactly 1 PDOM barrier (only the frand branch is divergent), got %d", len(pdoms))
	}
	b := pdoms[0]
	if got := findBarrierOps(f, b, ir.OpJoin); len(got) != 1 || got[0] != "prolog" {
		t.Errorf("PDOM join at %v, want [prolog]", got)
	}
	// ipdom of the prolog branch (expensive vs epilog) is epilog.
	if got := findBarrierOps(f, b, ir.OpWait); len(got) != 1 || got[0] != "epilog" {
		t.Errorf("PDOM wait at %v, want [epilog]", got)
	}
}

// TestSpecReconPlacement reproduces Figure 4(d): join at the region
// start, wait + rejoin at the label, cancels at region exits, and the
// orthogonal exit-barrier pair at the region dominator/post-dominator.
func TestSpecReconPlacement(t *testing.T) {
	comp, f := compileListing1(t, SpecReconOptions())
	specs := barriersByKind(comp, KindSpec)
	exits := barriersByKind(comp, KindExit)
	if len(specs) != 1 || len(exits) != 1 {
		t.Fatalf("want 1 spec + 1 exit barrier, got %d + %d", len(specs), len(exits))
	}
	b0, b1 := specs[0], exits[0]

	// JoinBarrier(b0) at region start (entry) and the rejoin at the
	// label (expensive).
	joins := findBarrierOps(f, b0, ir.OpJoin)
	if len(joins) != 2 || !contains(joins, "entry") || !contains(joins, "expensive") {
		t.Errorf("b0 joins at %v, want entry (region start) + expensive (rejoin)", joins)
	}
	if got := findBarrierOps(f, b0, ir.OpWait); len(got) != 1 || got[0] != "expensive" {
		t.Errorf("b0 wait at %v, want [expensive]", got)
	}
	// CancelBarrier(b0) where joined threads escape: the loop exit
	// target (done).
	if got := findBarrierOps(f, b0, ir.OpCancel); !contains(got, "done") {
		t.Errorf("b0 cancels at %v, want to include done", got)
	}

	// Exit barrier pair: join at region start, wait at the region's
	// post-dominator (done).
	if got := findBarrierOps(f, b1, ir.OpJoin); len(got) != 1 || got[0] != "entry" {
		t.Errorf("b1 join at %v, want [entry]", got)
	}
	if got := findBarrierOps(f, b1, ir.OpWait); len(got) != 1 || got[0] != "done" {
		t.Errorf("b1 wait at %v, want [done]", got)
	}

	// Ordering inside the label block: wait before rejoin.
	exp := f.BlockByName("expensive")
	wi, ji := -1, -1
	for i := range exp.Instrs {
		in := &exp.Instrs[i]
		if in.Bar == b0 && (in.Op == ir.OpWait || in.Op == ir.OpWaitN) {
			wi = i
		}
		if in.Bar == b0 && in.Op == ir.OpJoin {
			ji = i
		}
	}
	if wi < 0 || ji < 0 || ji != wi+1 {
		t.Errorf("rejoin must immediately follow the wait: wait@%d rejoin@%d", wi, ji)
	}

	// Ordering inside the exit block: cancel above the exit-barrier wait.
	done := f.BlockByName("done")
	ci, ei := -1, -1
	for i := range done.Instrs {
		in := &done.Instrs[i]
		if in.Op == ir.OpCancel && in.Bar == b0 {
			ci = i
		}
		if in.Op == ir.OpWait && in.Bar == b1 {
			ei = i
		}
	}
	if ci < 0 || ei < 0 || ci > ei {
		t.Errorf("cancel(b0)@%d must precede wait(b1)@%d in the exit block (Figure 4(d) BB5)", ci, ei)
	}
}

// TestThresholdOverrideLowersToWaitN checks soft-barrier lowering.
func TestThresholdOverrideLowersToWaitN(t *testing.T) {
	opts := SpecReconOptions()
	opts.ThresholdOverride = 16
	comp, f := compileListing1(t, opts)
	b0 := barriersByKind(comp, KindSpec)[0]

	exp := f.BlockByName("expensive")
	found := false
	for i := range exp.Instrs {
		in := &exp.Instrs[i]
		if in.Op == ir.OpWaitN && in.Bar == b0 {
			if in.Imm != 16 {
				t.Errorf("waitn threshold = %d, want 16", in.Imm)
			}
			found = true
		}
		if in.Op == ir.OpWait && in.Bar == b0 {
			t.Error("hard wait present despite threshold override")
		}
	}
	if !found {
		t.Fatal("no waitn emitted for the soft barrier")
	}
	// The region-exit barrier must remain a hard wait.
	b1 := barriersByKind(comp, KindExit)[0]
	if got := findBarrierOps(f, b1, ir.OpWaitN); len(got) != 0 {
		t.Errorf("exit barrier must not be soft, found waitn in %v", got)
	}
}

// TestThresholdOverrideOutOfRange: a threshold no waitn can carry is the
// caller's mistake and is reported as one, before any pass runs — not as
// an invalid output module blamed on the compiler.
func TestThresholdOverrideOutOfRange(t *testing.T) {
	for _, thr := range []int{-2, ir.WarpWidth + 1, 99} {
		opts := SpecReconOptions()
		opts.ThresholdOverride = thr
		_, err := Compile(buildListing1(64, 8), opts)
		if err == nil || !strings.Contains(err.Error(), "core: options: ThresholdOverride") {
			t.Errorf("threshold %d: error %v, want an options error", thr, err)
		}
	}
	for _, thr := range []int{-1, 0, ir.WarpWidth} {
		opts := SpecReconOptions()
		opts.ThresholdOverride = thr
		if _, err := Compile(buildListing1(64, 8), opts); err != nil {
			t.Errorf("threshold %d: %v", thr, err)
		}
	}
}

// TestPredictionRegionComputation checks the "can still reach the label"
// region rule on the Listing 1 CFG.
func TestPredictionRegionComputation(t *testing.T) {
	m := buildListing1(64, 8)
	f := m.FuncByName("kernel")
	f.Reindex()
	info := cfgNew(t, f)
	p := f.Predictions[0]
	region := predictionRegion(f, info, p.At, p.Label)
	wantIn := []string{"entry", "header", "prolog", "expensive", "epilog"}
	for _, name := range wantIn {
		if !region[f.BlockByName(name).Index] {
			t.Errorf("block %s should be in the prediction region", name)
		}
	}
	if region[f.BlockByName("done").Index] {
		t.Error("done cannot reach the label and must be outside the region")
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
