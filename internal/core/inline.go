package core

import (
	"fmt"

	"specrecon/internal/ir"
)

// Function inlining, built to study the paper's section-6 interaction:
// "If a function call that is common across divergent paths is inlined,
// we can no longer reconverge threads at a common PC, which inhibits the
// applicability of our optimization. On the other hand, common code
// across divergent paths may be refactored into a single method ...
// [which] introduces opportunity for reconvergence."
//
// Inline rewrites every call to callee inside caller into a copy of the
// callee's body. Because the ISA has no register windows (caller and
// callee share the per-thread register files by convention), no operand
// renaming is required; each call site gets its own clone of the callee
// blocks, with returns becoming branches to the split-off continuation.

// Inline expands every call to calleeName within callerName. It returns
// the number of call sites inlined. Interprocedural predictions in the
// caller naming the callee become invalid once no calls remain; Inline
// removes them and reports how many were dropped, mirroring how inlining
// inhibits the optimization.
func Inline(m *ir.Module, callerName, calleeName string) (sites int, droppedPredictions int, err error) {
	caller := m.FuncByName(callerName)
	callee := m.FuncByName(calleeName)
	if caller == nil || callee == nil {
		return 0, 0, fmt.Errorf("inline: function missing (%q or %q)", callerName, calleeName)
	}
	if caller == callee {
		return 0, 0, fmt.Errorf("inline: cannot inline %q into itself", calleeName)
	}
	if calls(callee, calleeName) {
		return 0, 0, fmt.Errorf("inline: %q is self-recursive", calleeName)
	}

	for {
		site, idx := findCall(caller, calleeName)
		if site == nil {
			break
		}
		inlineOne(caller, callee, site, idx, sites)
		sites++
	}
	if sites == 0 {
		return 0, 0, nil
	}

	// Grow the caller's register files to cover the callee's usage.
	if callee.NRegs > caller.NRegs {
		caller.NRegs = callee.NRegs
	}
	if callee.NFRegs > caller.NFRegs {
		caller.NFRegs = callee.NFRegs
	}

	// Interprocedural predictions pointing at the (now uncalled) callee
	// can no longer reconverge at a common PC: drop them.
	kept := caller.Predictions[:0]
	for _, p := range caller.Predictions {
		if p.Callee == calleeName && !calls(caller, calleeName) {
			droppedPredictions++
			continue
		}
		kept = append(kept, p)
	}
	caller.Predictions = kept

	caller.Reindex()
	return sites, droppedPredictions, ir.VerifyFunction(caller)
}

func calls(f *ir.Function, name string) bool {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if in := &b.Instrs[i]; in.Op == ir.OpCall && in.Callee == name {
				return true
			}
		}
	}
	return false
}

func findCall(f *ir.Function, name string) (*ir.Block, int) {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if in := &b.Instrs[i]; in.Op == ir.OpCall && in.Callee == name {
				return b, i
			}
		}
	}
	return nil, -1
}

// inlineOne splices one call site: the site block keeps the prefix and
// branches into a fresh clone of the callee; a continuation block takes
// the suffix and the original terminator; clone returns branch to the
// continuation.
func inlineOne(caller, callee *ir.Function, site *ir.Block, idx, n int) {
	prefix := fmt.Sprintf("%s.inl%d.", callee.Name, n)

	// Continuation: everything after the call, including the original
	// terminator and successors.
	cont := caller.NewBlock(prefix + "cont")
	cont.Instrs = append(cont.Instrs, site.Instrs[idx+1:]...)
	cont.Succs = site.Succs

	// Clone callee blocks.
	remap := make(map[*ir.Block]*ir.Block, len(callee.Blocks))
	for _, b := range callee.Blocks {
		nb := caller.NewBlock(prefix + b.Name)
		nb.Instrs = append([]ir.Instr(nil), b.Instrs...)
		remap[b] = nb
	}
	for _, b := range callee.Blocks {
		nb := remap[b]
		for _, s := range b.Succs {
			nb.Succs = append(nb.Succs, remap[s])
		}
		// Returns become branches to the continuation.
		if t := nb.Terminator(); t.Op == ir.OpRet {
			*t = ir.Instr{Op: ir.OpBr, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg}
			nb.Succs = []*ir.Block{cont}
		}
	}

	// The site block now ends by branching into the cloned entry.
	site.Instrs = append(site.Instrs[:idx:idx], ir.Instr{Op: ir.OpBr, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg})
	site.Succs = []*ir.Block{remap[callee.Entry()]}

	caller.Reindex()
}

// Outline is the inverse refactoring the paper mentions: it extracts a
// single block's non-terminator instructions into a fresh function and
// replaces them with a call — "common code across divergent paths may be
// refactored into a single method", creating the reconvergence
// opportunity of Figure 2(c). The block must not contain calls or
// barrier operations.
func Outline(m *ir.Module, fnName, blockName, newFuncName string) error {
	f := m.FuncByName(fnName)
	if f == nil {
		return fmt.Errorf("outline: function %q missing", fnName)
	}
	if m.FuncByName(newFuncName) != nil {
		return fmt.Errorf("outline: function %q already exists", newFuncName)
	}
	blk := f.BlockByName(blockName)
	if blk == nil {
		return fmt.Errorf("outline: block %q missing", blockName)
	}
	for i := 0; i < len(blk.Instrs)-1; i++ {
		op := blk.Instrs[i].Op
		if op == ir.OpCall || op.IsBarrierOp() {
			return fmt.Errorf("outline: block %q contains %s", blockName, op)
		}
	}

	nf := m.NewFunction(newFuncName)
	nf.NRegs, nf.NFRegs = f.NRegs, f.NFRegs
	body := nf.NewBlock(newFuncName + "_entry")
	body.Instrs = append(body.Instrs, blk.Instrs[:len(blk.Instrs)-1]...)
	body.Instrs = append(body.Instrs, ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg})

	term := *blk.Terminator()
	blk.Instrs = []ir.Instr{
		{Op: ir.OpCall, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Callee: newFuncName},
		term,
	}
	return ir.VerifyModule(m)
}
