package core

import (
	"testing"

	"specrecon/internal/dataflow"
	"specrecon/internal/ir"
	"specrecon/internal/simt"
)

// TestConflictDetectedOnListing1 reproduces the Figure 5 situation: the
// speculative barrier's first live interval (region start to label)
// overlaps the divergent branch's PDOM barrier non-inclusively.
func TestConflictDetectedOnListing1(t *testing.T) {
	comp, _ := compileListing1(t, SpecReconOptions())
	if len(comp.Conflicts) == 0 {
		t.Fatal("expected at least one conflict between the speculative and PDOM barriers")
	}
	kinds := map[BarrierKind]bool{}
	for _, c := range comp.Conflicts {
		kinds[comp.Barriers[c.A].Kind] = true
		if comp.Barriers[c.B].Kind != KindPDOM {
			t.Errorf("conflicting partner has kind %v, want pdom", comp.Barriers[c.B].Kind)
		}
	}
	if !kinds[KindSpec] {
		t.Error("the spec barrier should be a conflict participant")
	}
}

// TestExitBarrierDoesNotConflict: the region-exit barrier's interval
// contains the speculative one, so they must not be flagged.
func TestExitBarrierDoesNotConflict(t *testing.T) {
	comp, _ := compileListing1(t, SpecReconOptions())
	for _, c := range comp.Conflicts {
		ka := comp.Barriers[c.A].Kind
		kb := comp.Barriers[c.B].Kind
		if (ka == KindSpec && kb == KindExit) || (ka == KindExit && kb == KindSpec) {
			t.Fatalf("spec and exit barriers flagged as conflicting: %+v", c)
		}
	}
}

// TestDynamicDeconfliction verifies Figure 5(c): a cancel of the
// conflicting barrier is inserted immediately before the speculative
// wait, and nothing is deleted.
func TestDynamicDeconfliction(t *testing.T) {
	comp, f := compileListing1(t, SpecReconOptions())
	b0 := barriersByKind(comp, KindSpec)[0]
	pdom := barriersByKind(comp, KindPDOM)[0]

	exp := f.BlockByName("expensive")
	cancelIdx, waitIdx := -1, -1
	for i := range exp.Instrs {
		in := &exp.Instrs[i]
		if in.Op == ir.OpCancel && in.Bar == pdom {
			cancelIdx = i
		}
		if (in.Op == ir.OpWait || in.Op == ir.OpWaitN) && in.Bar == b0 {
			waitIdx = i
		}
	}
	if cancelIdx < 0 {
		t.Fatal("dynamic deconfliction did not insert a cancel of the PDOM barrier at the label")
	}
	if waitIdx < 0 || cancelIdx > waitIdx {
		t.Fatalf("cancel(pdom)@%d must precede wait(spec)@%d", cancelIdx, waitIdx)
	}
	// The PDOM barrier's own operations survive.
	if got := findBarrierOps(f, pdom, ir.OpJoin); len(got) == 0 {
		t.Error("dynamic deconfliction must not delete the PDOM join")
	}
	if got := findBarrierOps(f, pdom, ir.OpWait); len(got) == 0 {
		t.Error("dynamic deconfliction must not delete the PDOM wait")
	}
}

// TestStaticDeconfliction verifies Figure 5(b): the conflicting PDOM
// barrier's operations are deleted outright.
func TestStaticDeconfliction(t *testing.T) {
	opts := SpecReconOptions()
	opts.Deconflict = DeconflictStatic
	comp, f := compileListing1(t, opts)
	pdom := barriersByKind(comp, KindPDOM)[0]

	if got := findBarrierOps(f, pdom, ir.OpJoin); len(got) != 0 {
		t.Errorf("static deconfliction left PDOM joins at %v", got)
	}
	if got := findBarrierOps(f, pdom, ir.OpWait); len(got) != 0 {
		t.Errorf("static deconfliction left PDOM waits at %v", got)
	}
	// And no cancels of it were inserted either.
	if got := findBarrierOps(f, pdom, ir.OpCancel); len(got) != 0 {
		t.Errorf("static deconfliction inserted cancels at %v", got)
	}
}

// TestStaticAndDynamicAgreeOnResults: both strategies must preserve
// kernel semantics and both must complete under strict accounting.
func TestStaticAndDynamicAgreeOnResults(t *testing.T) {
	m := buildListing1(128, 12)
	var mems [][]uint64
	for _, mode := range []DeconflictMode{DeconflictDynamic, DeconflictStatic} {
		opts := SpecReconOptions()
		opts.Deconflict = mode
		comp, err := Compile(m, opts)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		res, err := simt.Run(comp.Module, simt.Config{Kernel: "kernel", Seed: 5, Strict: true})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		mems = append(mems, res.Memory)
	}
	for i := range mems[0] {
		if mems[0][i] != mems[1][i] {
			t.Fatalf("static and dynamic deconfliction disagree at word %d", i)
		}
	}
}

// TestOverlapNonInclusive exercises the interval predicate directly.
func TestOverlapNonInclusive(t *testing.T) {
	mk := func(bits ...int) []uint64 {
		w := make([]uint64, 2)
		for _, b := range bits {
			w[b/64] |= 1 << (b % 64)
		}
		return w
	}
	cases := []struct {
		a, b []uint64
		want bool
	}{
		{mk(1, 2, 3), mk(3, 4, 5), true},  // genuine partial overlap
		{mk(1, 2, 3), mk(2, 3), false},    // b inside a
		{mk(2, 3), mk(1, 2, 3, 4), false}, // a inside b
		{mk(1, 2), mk(3, 4), false},       // disjoint
		{mk(1, 2), mk(1, 2), false},       // identical
		{mk(70, 71), mk(71, 5), true},     // across words
	}
	for i, tc := range cases {
		if got := dataflow.OverlapNonInclusive(tc.a, tc.b); got != tc.want {
			t.Errorf("case %d: OverlapNonInclusive = %v, want %v", i, got, tc.want)
		}
	}
}

// TestJoinedRangeGapAtWait: the speculative barrier's joined range has a
// hole at the point between its wait and its rejoin (Figure 5(a) shows
// b0 as two separate intervals; in a loop they reconnect around the back
// edge, but the gap at the wait itself must remain — it is exactly what
// makes the PDOM barrier's range non-inclusive with the speculative
// one).
func TestJoinedRangeGapAtWait(t *testing.T) {
	comp, f := compileListing1(t, SpecReconOptions())
	b0 := barriersByKind(comp, KindSpec)[0]
	f.Reindex()
	info := cfgNew(t, f)
	intervals, fp := dataflow.JoinedIntervals(new(dataflow.Scratch), f, info)

	// Union the spec barrier's intervals.
	var pts []bool = make([]bool, fp.Total)
	for _, iv := range intervals {
		if iv.Bar != b0 {
			continue
		}
		iv.Points.ForEach(func(p int) { pts[p] = true })
	}

	exp := f.BlockByName("expensive")
	waitIdx := -1
	for i := range exp.Instrs {
		in := &exp.Instrs[i]
		if (in.Op == ir.OpWait || in.Op == ir.OpWaitN) && in.Bar == b0 {
			waitIdx = i
		}
	}
	if waitIdx < 0 {
		t.Fatal("no spec wait in the label block")
	}
	if !pts[fp.ID(exp.Index, waitIdx)] {
		t.Error("barrier must be joined at its own wait")
	}
	if pts[fp.ID(exp.Index, waitIdx+1)] {
		t.Error("barrier must be clear between the wait and the rejoin")
	}
	if !pts[fp.ID(exp.Index, waitIdx+2)] {
		t.Error("barrier must be joined again after the rejoin")
	}
}
