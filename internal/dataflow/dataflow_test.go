package dataflow

import (
	"testing"
	"testing/quick"

	"specrecon/internal/cfg"
	"specrecon/internal/ir"
)

func TestBitsBasics(t *testing.T) {
	b := NewBits(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Has(0) || !b.Has(64) || !b.Has(129) || b.Has(1) {
		t.Fatal("Set/Has broken")
	}
	if b.Count() != 3 {
		t.Fatalf("Count = %d, want 3", b.Count())
	}
	b.Clear(64)
	if b.Has(64) || b.Count() != 2 {
		t.Fatal("Clear broken")
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if len(got) != 2 || got[0] != 0 || got[1] != 129 {
		t.Fatalf("ForEach = %v", got)
	}
}

// Property tests on bitset algebra via testing/quick.
func TestBitsProperties(t *testing.T) {
	mk := func(xs []uint16, n int) Bits {
		b := NewBits(n)
		for _, x := range xs {
			b.Set(int(x) % n)
		}
		return b
	}
	const n = 200

	union := func(xs, ys []uint16) bool {
		a, b := mk(xs, n), mk(ys, n)
		u := a.Clone()
		u.UnionWith(b)
		for i := 0; i < n; i++ {
			if u.Has(i) != (a.Has(i) || b.Has(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(union, nil); err != nil {
		t.Errorf("union property: %v", err)
	}

	andNot := func(xs, ys []uint16) bool {
		a, b := mk(xs, n), mk(ys, n)
		d := a.Clone()
		d.AndNot(b)
		for i := 0; i < n; i++ {
			if d.Has(i) != (a.Has(i) && !b.Has(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(andNot, nil); err != nil {
		t.Errorf("andnot property: %v", err)
	}

	unionIdempotent := func(xs []uint16) bool {
		a := mk(xs, n)
		c := a.Clone()
		changed := c.UnionWith(a)
		return !changed && c.Equal(a)
	}
	if err := quick.Check(unionIdempotent, nil); err != nil {
		t.Errorf("idempotence property: %v", err)
	}
}

// buildFigure4 reconstructs the CFG of the paper's Figure 4 with the
// synchronization hints of Figure 4(a) inserted:
//
//	BB0 (join b0) -> BB1 -> BB2 -> {BB3, BB4}
//	BB3 (wait b0) -> BB4 ; BB4 (epilog) -> {BB1, BB5} ; BB5 exit
func buildFigure4(t *testing.T) (*ir.Function, *cfg.Info) {
	t.Helper()
	m := ir.NewModule("fig4")
	f := m.NewFunction("kernel")
	f.NRegs = 1
	bb0 := f.NewBlock("BB0")
	bb1 := f.NewBlock("BB1")
	bb2 := f.NewBlock("BB2")
	bb3 := f.NewBlock("BB3")
	bb4 := f.NewBlock("BB4")
	bb5 := f.NewBlock("BB5")

	bar := func(op ir.Opcode) ir.Instr {
		return ir.Instr{Op: op, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Bar: 0}
	}
	tid := ir.Instr{Op: ir.OpTid, Dst: 0, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg}
	br := ir.Instr{Op: ir.OpBr, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg}
	cbr := ir.Instr{Op: ir.OpCBr, Dst: ir.NoReg, A: 0, B: ir.NoReg, C: ir.NoReg}
	exit := ir.Instr{Op: ir.OpExit, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg}

	bb0.Instrs = []ir.Instr{bar(ir.OpJoin), br} // JoinBarrier(b0): region start
	bb0.Succs = []*ir.Block{bb1}
	bb1.Instrs = []ir.Instr{tid, br} // loop header / prolog
	bb1.Succs = []*ir.Block{bb2}
	bb2.Instrs = []ir.Instr{cbr} // divergent condition
	bb2.Succs = []*ir.Block{bb3, bb4}
	bb3.Instrs = []ir.Instr{bar(ir.OpWait), br} // WaitBarrier(b0): convergence point
	bb3.Succs = []*ir.Block{bb4}
	bb4.Instrs = []ir.Instr{cbr} // epilog: loop back or leave
	bb4.Succs = []*ir.Block{bb1, bb5}
	bb5.Instrs = []ir.Instr{exit}

	if err := ir.VerifyFunction(f); err != nil {
		t.Fatalf("figure 4 function invalid: %v", err)
	}
	return f, cfg.New(f)
}

// TestJoinedBarriersFigure4 checks equation (1) against the worked
// example: "In Figure 4(b), the barrier at BB3 is joined at BB0 and
// cleared at BB3" — JoinedOut is {b0} everywhere except BB3.
func TestJoinedBarriersFigure4(t *testing.T) {
	f, info := buildFigure4(t)
	res := JoinedBarriers(f, info, false)

	wantOut := map[string]bool{
		"BB0": true, "BB1": true, "BB2": true,
		"BB3": false, // cleared by the wait
		"BB4": true, "BB5": true,
	}
	for _, b := range f.Blocks {
		got := res.Out(b.Index).Has(0)
		if got != wantOut[b.Name] {
			t.Errorf("JoinedOut(%s) = %v, want %v", b.Name, got, wantOut[b.Name])
		}
	}
}

// TestLiveBarriersFigure4 checks equation (2) against the worked
// example: "In Figure 4(c), the barrier b0 is dead at BB5 and BB0" —
// LiveOut is {b0} everywhere except BB5 (and the join in BB0 kills
// liveness above it, i.e. LiveIn(BB0) is empty).
func TestLiveBarriersFigure4(t *testing.T) {
	f, info := buildFigure4(t)
	res := LiveBarriers(f, info)

	wantOut := map[string]bool{
		"BB0": true, "BB1": true, "BB2": true, "BB3": true, "BB4": true,
		"BB5": false,
	}
	for _, b := range f.Blocks {
		got := res.Out(b.Index).Has(0)
		if got != wantOut[b.Name] {
			t.Errorf("LiveOut(%s) = %v, want %v", b.Name, got, wantOut[b.Name])
		}
	}
	if res.In(f.BlockByName("BB0").Index).Has(0) {
		t.Error("LiveIn(BB0) should be empty: the join kills liveness")
	}
}

// TestJoinedAtInstructionGranularity verifies the within-block
// refinement: before the wait in BB3 the barrier is joined; after it
// (i.e. before the following branch) it is not.
func TestJoinedAtInstructionGranularity(t *testing.T) {
	f, info := buildFigure4(t)
	res := JoinedBarriers(f, info, false)
	at := JoinedAt(f, res, false)
	bb3 := f.BlockByName("BB3")
	if !at.Before(bb3.Index, 0).Has(0) {
		t.Error("barrier should be joined before the wait in BB3")
	}
	if at.Before(bb3.Index, 1).Has(0) {
		t.Error("barrier should be cleared after the wait in BB3")
	}
	bb0 := f.BlockByName("BB0")
	if at.Before(bb0.Index, 0).Has(0) {
		// Before the join in BB0 the barrier is joined only via the
		// loop path... there is no path back to BB0, so it must be
		// clear.
		t.Error("barrier must not be joined before the join in BB0")
	}
}

// TestCancelsExtendKills checks includeCancels: a cancel clears
// joined-ness for conflict analysis.
func TestCancelsExtendKills(t *testing.T) {
	f, info := buildFigure4(t)
	// Put a cancel at the top of BB5.
	f.BlockByName("BB5").InsertTop(ir.Instr{Op: ir.OpCancel, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Bar: 0})

	without := JoinedBarriers(f, info, false)
	if !without.Out(f.BlockByName("BB5").Index).Has(0) {
		t.Error("ignoring cancels, barrier should remain joined at BB5 exit")
	}
	with := JoinedBarriers(f, info, true)
	if with.Out(f.BlockByName("BB5").Index).Has(0) {
		t.Error("with cancels, barrier should be cleared at BB5 exit")
	}
}

// TestRegLiveness checks backward register liveness on a tiny function.
func TestRegLiveness(t *testing.T) {
	m := ir.NewModule("live")
	f := m.NewFunction("kernel")
	b := ir.NewBuilder(f)
	entry := f.NewBlock("entry")
	use := f.NewBlock("use")
	b.SetBlock(entry)
	x := b.Const(42) // defined here, used in 'use' -> live across the edge
	y := b.Const(7)  // defined and immediately dead
	_ = y
	b.Br(use)
	b.SetBlock(use)
	z := b.AddI(x, 1)
	b.Store(z, 0, x)
	b.Exit()

	info := cfg.New(f)
	ints, _ := RegLiveness(f, info)
	if !ints.Out(entry.Index).Has(int(x)) {
		t.Errorf("r%d should be live out of entry", x)
	}
	if ints.Out(entry.Index).Has(int(y)) {
		t.Errorf("r%d should be dead out of entry", y)
	}
	if ints.In(use.Index).Has(int(z)) {
		t.Errorf("r%d is defined in 'use'; must not be live in", z)
	}
}

// TestSolverReachesFixpointOnLoop ensures the worklist handles cyclic
// flow: a barrier joined before a loop must be joined throughout it.
func TestSolverReachesFixpointOnLoop(t *testing.T) {
	f, info := buildFigure4(t)
	// Remove the wait in BB3 so the barrier stays joined through the
	// whole loop.
	bb3 := f.BlockByName("BB3")
	bb3.Instrs = bb3.Instrs[1:]
	res := JoinedBarriers(f, info, false)
	for _, b := range f.Blocks {
		if !res.Out(b.Index).Has(0) {
			t.Errorf("barrier should be joined at %s with no wait anywhere", b.Name)
		}
	}
}
