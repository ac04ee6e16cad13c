// Package divergence implements a forward divergence analysis over the
// virtual ISA: it computes which registers may hold thread-varying
// ("divergent") values and, from that, which conditional branches may
// diverge. The PDOM baseline synchronization pass only inserts
// convergence barriers at divergent branches, and the automatic
// speculative-reconvergence detector (paper section 4.5) uses divergent
// loop-exit branches to find Loop Merge and Iteration Delay candidates.
//
// Divergence roots are the opcodes whose results differ per lane
// regardless of inputs: tid, lane, rand, frand. Divergence propagates
// through def-use chains; loads propagate the divergence of their address
// (global memory is assumed host-initialized, so a load from a uniform
// address is uniform — stores from divergent lanes to uniform addresses
// racing with such loads are not modeled, which is the standard
// conservative simplification for hint-only analyses). The analysis is
// flow-insensitive over registers within a function (a register is
// divergent if any reaching definition is divergent), which is sound and
// inexpensive.
//
// Control-induced divergence (sync dependence) is modeled at block
// granularity: a register defined in a block that executes under a
// divergent branch gets marked divergent as well, using the standard
// "blocks between a divergent branch and its post-dominator" criterion.
package divergence

import (
	"slices"

	"specrecon/internal/cfg"
	"specrecon/internal/ir"
)

// Info holds the analysis result for one function.
type Info struct {
	Fn *ir.Function

	// DivergentInt[r] / DivergentFloat[r] report whether the register
	// may hold a thread-varying value.
	DivergentInt   []bool
	DivergentFloat []bool

	// DivergentBranch[b.Index] reports whether block b ends in a
	// conditional branch whose condition may be divergent.
	DivergentBranch []bool

	// DivergentBlock[b.Index] reports whether the block may execute
	// with a partial warp (it lies between a divergent branch and that
	// branch's post-dominator).
	DivergentBlock []bool

	// seen and stack are markUntil's storage, kept as empty views.
	seen  []bool
	stack []int
}

// Analyze runs the analysis. Divergence is propagated through calls by
// treating the registers a call may clobber (the low halves of both
// files) as divergent when the callee is in CalleeRoots(m); with a nil
// module no callee is. That is coarse but sound, and precise enough for
// the kernels here.
func Analyze(m *ir.Module, f *ir.Function, info *cfg.Info) *Info {
	return AnalyzeWith(f, info, CalleeRoots(m, nil), nil)
}

// AnalyzeWith is Analyze given the module's callee-roots set, which a
// caller analyzing every function of a module computes once, built into
// the storage of into — an Info analyzed before, for any function — or,
// with into nil, into new storage. Every table is rebuilt.
func AnalyzeWith(f *ir.Function, info *cfg.Info, calleeDivergent []string, into *Info) *Info {
	d := into
	if d == nil {
		d = new(Info)
	}
	d.Fn = f
	d.DivergentInt, d.DivergentFloat = cfg.Reuse(d.DivergentInt, max(f.NRegs, 1)), cfg.Reuse(d.DivergentFloat, max(f.NFRegs, 1))
	d.DivergentBranch, d.DivergentBlock = cfg.Reuse(d.DivergentBranch, len(f.Blocks)), cfg.Reuse(d.DivergentBlock, len(f.Blocks))
	d.seen, d.stack = cfg.Reuse(d.seen, 0), cfg.Reuse(d.stack, 0) // never nil, as after a walk

	// Fixed point over register divergence.
	changed := true
	for changed {
		changed = false
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if d.transfer(in, calleeDivergent) {
					changed = true
				}
			}
		}
	}

	// Branch divergence from condition registers.
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t.Op == ir.OpCBr && t.A >= 0 && d.DivergentInt[t.A] {
			d.DivergentBranch[b.Index] = true
		}
	}

	// Block divergence: blocks on some path from a divergent branch to
	// its immediate post-dominator (exclusive of the post-dominator).
	for _, b := range f.Blocks {
		if !d.DivergentBranch[b.Index] {
			continue
		}
		pd := info.Ipdom(b)
		for _, s := range b.Succs {
			d.markUntil(s, pd)
		}
	}

	// Second round: values defined in divergent blocks are divergent
	// (sync dependence), which can create new divergent branches.
	again := true
	for again {
		again = false
		for _, b := range f.Blocks {
			if !d.DivergentBlock[b.Index] {
				continue
			}
			for i := range b.Instrs {
				in := &b.Instrs[i]
				sig := ir.OperandFiles(in.Op)
				if sig.Dst == ir.FileInt && in.Dst >= 0 && !d.DivergentInt[in.Dst] {
					d.DivergentInt[in.Dst] = true
					again = true
				}
				if sig.Dst == ir.FileFloat && in.Dst >= 0 && !d.DivergentFloat[in.Dst] {
					d.DivergentFloat[in.Dst] = true
					again = true
				}
			}
		}
		if again {
			// Re-derive branch and block divergence with the wider
			// register sets.
			for _, b := range f.Blocks {
				t := b.Terminator()
				if t.Op == ir.OpCBr && t.A >= 0 && d.DivergentInt[t.A] && !d.DivergentBranch[b.Index] {
					d.DivergentBranch[b.Index] = true
					pd := info.Ipdom(b)
					for _, s := range b.Succs {
						d.markUntil(s, pd)
					}
				}
			}
		}
	}
	return d
}

// transfer applies one instruction's divergence propagation, reporting
// whether any register changed to divergent.
func (d *Info) transfer(in *ir.Instr, calleeDivergent []string) bool {
	sig := ir.OperandFiles(in.Op)
	srcDivergent := false
	if in.Op.IsDivergenceSource() {
		srcDivergent = true
	}
	use := func(r ir.Reg, f ir.OperandFile) {
		if r < 0 {
			return
		}
		switch f {
		case ir.FileInt:
			if d.DivergentInt[r] {
				srcDivergent = true
			}
		case ir.FileFloat:
			if d.DivergentFloat[r] {
				srcDivergent = true
			}
		}
	}
	use(in.A, sig.A)
	if !in.BImm {
		use(in.B, sig.B)
	}
	use(in.C, sig.C)

	if in.Op == ir.OpCall && slices.Contains(calleeDivergent, in.Callee) {
		// The callee derives values from divergence roots and may leave
		// them in the clobberable low registers.
		changed := false
		for r := 0; r < len(d.DivergentInt) && r < 8; r++ {
			if !d.DivergentInt[r] {
				d.DivergentInt[r] = true
				changed = true
			}
		}
		for r := 0; r < len(d.DivergentFloat) && r < 8; r++ {
			if !d.DivergentFloat[r] {
				d.DivergentFloat[r] = true
				changed = true
			}
		}
		return changed
	}

	// Atomics return the previous memory value, which depends on lane
	// ordering: always divergent. Warp votes are uniform within their
	// issuing group but group membership is schedule-dependent, so they
	// are conservatively divergent too.
	if in.Op == ir.OpAtomAdd || in.Op == ir.OpFAtomAdd || in.Op.IsWarpSynchronous() {
		srcDivergent = true
	}

	if !srcDivergent || in.Dst < 0 {
		return false
	}
	switch sig.Dst {
	case ir.FileInt:
		if !d.DivergentInt[in.Dst] {
			d.DivergentInt[in.Dst] = true
			return true
		}
	case ir.FileFloat:
		if !d.DivergentFloat[in.Dst] {
			d.DivergentFloat[in.Dst] = true
			return true
		}
	}
	return false
}

// CalleeRoots returns the names of m's functions that contain a
// divergence-root opcode or, through any chain of calls, reach one that
// does: the least fixed point, so recursive cycles neither loop nor hide
// a root behind them. The set is a short list (a module has a handful
// of functions) in into's storage, never nil.
func CalleeRoots(m *ir.Module, into []string) []string {
	roots := cfg.Reuse(into, 0)
	for changed := m != nil; changed; {
		changed = false
		for _, fn := range m.Funcs {
			if !slices.Contains(roots, fn.Name) && hasRoot(fn, roots) {
				roots, changed = append(roots, fn.Name), true
			}
		}
	}
	return roots
}

// hasRoot reports whether fn contains a divergence-root opcode or a call
// to a function in roots.
func hasRoot(fn *ir.Function, roots []string) bool {
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op.IsDivergenceSource() || in.Op == ir.OpAtomAdd || in.Op == ir.OpFAtomAdd ||
				in.Op == ir.OpCall && slices.Contains(roots, in.Callee) {
				return true
			}
		}
	}
	return false
}

// markUntil marks in DivergentBlock the blocks reachable from start
// without passing through stop (which may be nil, meaning mark
// everything reachable).
func (d *Info) markUntil(start, stop *ir.Block) {
	if start == stop {
		return
	}
	seen := cfg.Reuse(d.seen, len(d.Fn.Blocks))
	stack := append(d.stack, start.Index)
	for len(stack) > 0 {
		b := d.Fn.Blocks[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		if seen[b.Index] {
			continue
		}
		seen[b.Index] = true
		d.DivergentBlock[b.Index] = true
		for _, s := range b.Succs {
			if s != stop && !seen[s.Index] {
				stack = append(stack, s.Index)
			}
		}
	}
	d.seen, d.stack = seen[:0], stack
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
