package core

import (
	"specrecon/internal/dataflow"
	"specrecon/internal/ir"
)

// Conflict analysis, paper section 4.3: barrier live intervals overlap
// in a non-inclusive manner. The interval machinery (equation 1 with
// cancels as clears, refined within blocks and split into connected
// components) lives in internal/dataflow so the static analyzer and the
// allocator share it; this file keeps the pass that consumes it.

// deconflict finds conflicts against the speculative (and region-exit)
// barriers of f and resolves them per the given strategy.
func (c *PassContext) deconflict(f *ir.Function, waits []specWait, mode DeconflictMode) {
	specBars := make(map[int]bool)
	waitOf := make(map[int]specWait)
	for _, sw := range waits {
		if sw.interproc {
			// Section 4.4: speculative reconvergence at a function
			// entry "does not conflict with the compiler inserted
			// reconvergence point"; interprocedural barriers are
			// excluded from conflict analysis.
			continue
		}
		specBars[sw.bar] = true
		waitOf[sw.bar] = sw
		if sw.exitBar >= 0 {
			specBars[sw.exitBar] = true
			waitOf[sw.exitBar] = specWait{bar: sw.exitBar, exitBar: -1, waitFn: sw.waitFn, waitBlock: exitWaitBlock(f, sw.exitBar)}
		}
	}
	if len(specBars) == 0 {
		return
	}

	// FindConflicts returns the pairs sorted: ConflictPair and remark
	// order, and the identity of "the Nth conflict" under fault
	// injection, depend on it.
	for _, pair := range dataflow.FindConflicts(c.facts.Scratch(), f, c.facts.CFG(f), specBars) {
		spec, other := pair[0], pair[1]
		sw := waitOf[spec]
		if sw.waitBlock == nil {
			continue
		}
		c.result.Conflicts = append(c.result.Conflicts, ConflictPair{Fn: f, A: spec, B: other})
		kind := KindUser
		if other < len(c.barriers) {
			kind = c.barriers[other].Kind
		}
		c.conflictSeen++
		if c.conflictSeen == c.Opts.Faults.SkipConflict {
			c.Remarkf(f.Name, sw.waitBlock.Name, "fault skip-conflict@%d: conflict between b%d and %s barrier b%d left unresolved", c.conflictSeen, spec, kind, other)
			continue
		}
		if mode == DeconflictStatic && kind == KindPDOM {
			c.Remarkf(f.Name, sw.waitBlock.Name, "barrier b%d conflicts with %s barrier b%d: removed its operations statically", spec, kind, other)
			removeBarrierOps(f, other)
			continue
		}
		// Dynamic deconfliction: cancel the conflicting barrier
		// immediately before the speculative wait (Figure 5(c)).
		c.Remarkf(f.Name, sw.waitBlock.Name, "barrier b%d conflicts with %s barrier b%d: cancelled before the speculative wait", spec, kind, other)
		insertCancelBeforeWait(sw.waitBlock, spec, other)
	}
}

// exitWaitBlock locates the block holding the wait of an exit barrier.
func exitWaitBlock(f *ir.Function, bar int) *ir.Block {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if (in.Op == ir.OpWait || in.Op == ir.OpWaitN) && in.Bar == bar {
				return b
			}
		}
	}
	return nil
}

// insertCancelBeforeWait inserts cancel(other) directly above the wait on
// spec inside block.
func insertCancelBeforeWait(block *ir.Block, spec, other int) {
	for i := range block.Instrs {
		in := &block.Instrs[i]
		if (in.Op == ir.OpWait || in.Op == ir.OpWaitN) && in.Bar == spec {
			block.InsertAt(i, barInstr(ir.OpCancel, other))
			return
		}
	}
}

// removeBarrierOps deletes every operation referencing the barrier, the
// static deconfliction of Figure 5(b).
func removeBarrierOps(f *ir.Function, bar int) {
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for i := range b.Instrs {
			in := b.Instrs[i]
			if in.Op.IsBarrierOp() && in.Bar == bar && in.Op != ir.OpArrived {
				continue
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}
}
