package diffcheck

import (
	"specrecon/internal/ir"
)

// A kernel derived from another one — a shrink candidate, a -mutate
// mutant — is checked under derivedBudgetScale times the issues its
// parent's baseline took, at least minDerivedBudget and never above the
// caller's budget, so a derived kernel that loops costs what its parent
// costs rather than the whole budget.
const (
	derivedBudgetScale = 64
	minDerivedBudget   = 1 << 18
)

// DerivedOptions is opts for checking a kernel derived from one whose
// check under opts gave parent: the issue budget scales from the
// parent's baseline. A parent whose baseline did not complete keeps
// opts' budget, and so does a liveness finding (LayerStarvation,
// LayerBudget), whose monitors need the room the caller gave.
func DerivedOptions(opts Options, parent Result) Options {
	opts = opts.withDefaults()
	switch ClassifyFailure(parent) {
	case LayerStarvation, LayerBudget:
		return opts
	}
	if n := parent.BaseMetrics.Issues; n > 0 && !parent.Stage.BaselineFailure() {
		opts.MaxIssues = min(opts.MaxIssues, max(minDerivedBudget, derivedBudgetScale*n))
	}
	return opts
}

// OutOfDerivedBudget reports whether res, a check under derived, ran
// out of an issue budget that derived cut below opts': its verdict is
// the cut's, not the kernel's.
func OutOfDerivedBudget(res Result, derived, opts Options) bool {
	return derived.MaxIssues < opts.withDefaults().MaxIssues && ClassifyFailure(res) == LayerBudget
}

// maxShrinkChecks bounds the number of differential checks one Minimize
// call may spend; each check is up to two compiles and two simulations,
// so an adversarial kernel must not turn shrinking into an unbounded
// campaign.
const maxShrinkChecks = 400

// Minimize greedily shrinks a failing kernel while it keeps failing at
// the same stage, and returns the smallest reproducer found together
// with its check result. A kernel that passes is returned unchanged.
//
// The shrink operations, in order of how much they cut:
//
//   - force a conditional branch to one side and delete the blocks that
//     become unreachable (predictions into deleted blocks go with them);
//   - delete a single non-terminator instruction;
//   - shrink an integer immediate toward zero (loop trip counts, masks);
//   - halve the thread count down to one warp.
//
// Every candidate is verified (ir.VerifyModule) and re-checked before it
// is accepted, so the result is always a valid module that still
// reproduces. A candidate is checked under the budget DerivedOptions
// gives the kernel it shrinks, and one that runs out of that budget is
// not accepted.
func Minimize(k Kernel, opts Options) (Kernel, Result) {
	first := Check(k, opts)
	if first.OK {
		return k, first
	}
	cur, res := k, first
	checks := 0
	for {
		improved := false
		derived := DerivedOptions(opts, res)
		for _, cand := range candidates(cur) {
			if checks >= maxShrinkChecks {
				return cur, res
			}
			checks++
			r := Check(cand, derived)
			if !r.OK && r.Stage == res.Stage && !OutOfDerivedBudget(r, derived, opts) {
				cur, res = cand, r
				improved = true
				break // restart candidate enumeration from the smaller kernel
			}
		}
		if !improved {
			return cur, res
		}
	}
}

// Mutations returns the one-step structural variants of k the shrinker
// searches — verified modules with a branch committed, an instruction
// dropped, an immediate shrunk, or fewer threads. diffhunt's -mutate
// mode feeds them back through the checker as campaign inputs.
func Mutations(k Kernel) []Kernel {
	return candidates(k)
}

// candidates enumerates one-step shrinks of k, each a deep copy that
// still passes the IR verifier. Enumeration order puts the biggest cuts
// first so the greedy loop converges quickly.
func candidates(k Kernel) []Kernel {
	var out []Kernel
	add := func(c Kernel) {
		if ir.VerifyModule(c.Module) == nil {
			out = append(out, c)
		}
	}

	// Branch simplification: commit each conditional branch to one side.
	for fi, f := range k.Module.Funcs {
		for bi, b := range f.Blocks {
			if len(b.Instrs) == 0 || b.Terminator().Op != ir.OpCBr {
				continue
			}
			for side := 0; side < 2; side++ {
				c := k.cloneKernel()
				cb := c.Module.Funcs[fi].Blocks[bi]
				target := cb.Succs[side]
				cb.Instrs[len(cb.Instrs)-1] = ir.Instr{Op: ir.OpBr}
				cb.Succs = []*ir.Block{target}
				dropUnreachable(c.Module.Funcs[fi])
				add(c)
			}
		}
	}

	// Single-instruction deletion (terminators stay).
	for fi, f := range k.Module.Funcs {
		for bi, b := range f.Blocks {
			for ii := 0; ii < len(b.Instrs)-1; ii++ {
				c := k.cloneKernel()
				c.Module.Funcs[fi].Blocks[bi].RemoveAt(ii)
				add(c)
			}
		}
	}

	// Immediate shrinking toward zero.
	for fi, f := range k.Module.Funcs {
		for bi, b := range f.Blocks {
			for ii := range b.Instrs {
				if imm := b.Instrs[ii].Imm; imm > 1 || imm < -1 {
					c := k.cloneKernel()
					c.Module.Funcs[fi].Blocks[bi].Instrs[ii].Imm = imm / 2
					add(c)
				}
			}
		}
	}

	// Fewer threads (whole warps only).
	if k.Threads > ir.WarpWidth {
		c := k.cloneKernel()
		half := k.Threads / 2
		half -= half % ir.WarpWidth
		if half < ir.WarpWidth {
			half = ir.WarpWidth
		}
		c.Threads = half
		add(c)
	}
	return out
}

func (k Kernel) cloneKernel() Kernel {
	c := k
	c.Module = k.Module.Clone()
	if k.Memory != nil {
		c.Memory = append([]uint64(nil), k.Memory...)
	}
	return c
}

// dropUnreachable removes blocks no longer reachable from the entry,
// along with any predictions pointing into them.
func dropUnreachable(f *ir.Function) {
	reach := map[*ir.Block]bool{}
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		if reach[b] {
			return
		}
		reach[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(f.Entry())

	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if reach[b] {
			kept = append(kept, b)
		}
	}
	f.Blocks = kept

	preds := f.Predictions[:0]
	for _, p := range f.Predictions {
		if reach[p.At] && (p.Label == nil || reach[p.Label]) {
			preds = append(preds, p)
		}
	}
	f.Predictions = preds
	f.Reindex()
}
