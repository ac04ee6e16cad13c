package dataflow

import (
	"testing"

	"specrecon/internal/cfg"
	"specrecon/internal/ir"
)

// CFG edge cases for the equation-1/equation-2 solvers: self-loop
// blocks (a back edge from a block to itself), unreachable blocks with
// edges into live code, and loops with multiple back-edges into one
// header. Each is a shape the worklist iteration must fixpoint through
// correctly rather than a shape the workloads happen to exercise.

// TestSelfLoopBlock pins the single-block loop: the block's own OUT
// feeds its IN (forward) and its own IN feeds its OUT (backward), so
// a join inside the block must flow around the self edge.
func TestSelfLoopBlock(t *testing.T) {
	m := ir.NewModule("selfloop")
	f := m.NewFunction("k")
	b := ir.NewBuilder(f)
	entry := f.NewBlock("entry")
	loop := f.NewBlock("loop")
	done := f.NewBlock("done")

	b.SetBlock(entry)
	bar := b.Barrier()
	b.Br(loop)

	b.SetBlock(loop)
	b.Join(bar)
	cond := b.Rand()
	b.CBr(cond, loop, done)

	b.SetBlock(done)
	b.Wait(bar)
	b.Exit()

	f.Reindex()
	info := cfg.New(f, nil)

	joined := JoinedBarriers(new(Scratch), f, info, false)
	// Equation 1: the join reaches the top of its own block around the
	// self edge — without the self-edge union IN would stay empty.
	if !joined.In(loop.Index).Has(bar) {
		t.Errorf("eq1: joined IN of self-loop block misses b%d", bar)
	}
	if !joined.In(done.Index).Has(bar) {
		t.Errorf("eq1: joined IN of loop exit misses b%d", bar)
	}
	if joined.Out(done.Index).Has(bar) {
		t.Errorf("eq1: wait did not clear b%d at exit OUT", bar)
	}

	live := LiveBarriers(new(Scratch), f, info)
	// Equation 2: the wait ahead makes the barrier live at the bottom of
	// the self-loop block, but the join at its top kills liveness before
	// the block entry.
	if !live.Out(loop.Index).Has(bar) {
		t.Errorf("eq2: live OUT of self-loop block misses b%d", bar)
	}
	if live.In(loop.Index).Has(bar) {
		t.Errorf("eq2: join failed to kill liveness at self-loop block IN")
	}
	if !live.In(done.Index).Has(bar) {
		t.Errorf("eq2: live IN of waiting block misses b%d", bar)
	}
}

// TestUnreachableBlockDoesNotPoison pins the treatment of dead code: a
// block no path reaches, even one with an edge into live code, must
// contribute nothing — its joins never reach the merge's IN, because
// the solver iterates reverse postorder of the reachable region and an
// unreachable predecessor's OUT stays bottom.
func TestUnreachableBlockDoesNotPoison(t *testing.T) {
	m := ir.NewModule("island")
	f := m.NewFunction("k")
	b := ir.NewBuilder(f)
	entry := f.NewBlock("entry")
	merge := f.NewBlock("merge")
	island := f.NewBlock("island")

	b.SetBlock(entry)
	bar := b.Barrier()
	b.Br(merge)

	b.SetBlock(merge)
	b.Exit()

	b.SetBlock(island) // no predecessors, but an edge into merge
	b.Join(bar)
	b.Br(merge)

	f.Reindex()
	info := cfg.New(f, nil)
	if info.Reachable(island) {
		t.Fatal("island unexpectedly reachable")
	}

	joined := JoinedBarriers(new(Scratch), f, info, false)
	if joined.In(merge.Index).Has(bar) {
		t.Errorf("eq1: unreachable join of b%d poisoned the reachable merge", bar)
	}
	if joined.Out(island.Index).Has(bar) {
		t.Errorf("eq1: unreachable block's OUT was computed; it should stay bottom")
	}
}

// TestMultipleBackEdges pins a loop with two latches (the continue
// pattern): both back edges must feed the header's IN under equation 1,
// and liveness must flow backward through both under equation 2.
func TestMultipleBackEdges(t *testing.T) {
	m := ir.NewModule("twolatch")
	f := m.NewFunction("k")
	b := ir.NewBuilder(f)
	entry := f.NewBlock("entry")
	header := f.NewBlock("header")
	body := f.NewBlock("body")
	latchA := f.NewBlock("latchA")
	latchB := f.NewBlock("latchB")
	done := f.NewBlock("done")

	b.SetBlock(entry)
	bar := b.Barrier()
	b.Br(header)

	b.SetBlock(header)
	c := b.Rand()
	b.CBr(c, body, done)

	b.SetBlock(body)
	b.Join(bar)
	c2 := b.Rand()
	b.CBr(c2, latchA, latchB)

	b.SetBlock(latchA)
	b.Br(header)

	b.SetBlock(latchB)
	b.Br(header)

	b.SetBlock(done)
	b.Wait(bar)
	b.Exit()

	f.Reindex()
	info := cfg.New(f, nil)

	joined := JoinedBarriers(new(Scratch), f, info, false)
	// Equation 1: joined-ness flows around the loop through BOTH
	// latches into the header, and from there to the exit where the
	// wait clears it.
	for _, blk := range []*ir.Block{latchA, latchB} {
		if !joined.Out(blk.Index).Has(bar) {
			t.Errorf("eq1: joined OUT of %s misses b%d", blk.Name, bar)
		}
	}
	if !joined.In(header.Index).Has(bar) {
		t.Errorf("eq1: joined IN of two-latch header misses b%d", bar)
	}
	if !joined.In(done.Index).Has(bar) {
		t.Errorf("eq1: joined IN of exit misses b%d", bar)
	}
	if joined.Out(done.Index).Has(bar) {
		t.Errorf("eq1: wait did not clear b%d", bar)
	}

	live := LiveBarriers(new(Scratch), f, info)
	// Equation 2: the wait makes the barrier live throughout the loop
	// skeleton (header and both latches — a wait lies ahead of each),
	// and the join kills liveness at the body's entry.
	for _, blk := range []*ir.Block{header, latchA, latchB} {
		if !live.In(blk.Index).Has(bar) {
			t.Errorf("eq2: live IN of %s misses b%d", blk.Name, bar)
		}
	}
	if live.In(body.Index).Has(bar) {
		t.Errorf("eq2: join failed to kill liveness at body IN")
	}
}
