package dataflow

import (
	"specrecon/internal/cfg"
	"specrecon/internal/ir"
)

// Interprocedural refinements of the equation-1 analysis. Barrier
// registers are warp state shared across the call graph, so module-level
// consumers (lint, the barrier-safety verifier, the static analyzer)
// need a module-wide barrier count and a model of what a call does to
// the joined set.

// ModuleNumBarriers returns one more than the highest barrier register
// used anywhere in the module (barriers span functions
// interprocedurally), at least 1.
func ModuleNumBarriers(m *ir.Module) int {
	nb := 1
	for _, f := range m.Funcs {
		if n := NumBarriers(f); n > nb {
			nb = n
		}
	}
	return nb
}

// CalleeEntryWaits maps each function to the barriers its entry block
// waits on before any branch — the interprocedural reconvergence pattern
// of §4.4. A call to such a function is guaranteed to clear those
// barriers, which the joined-at-exit analysis must model or every
// interprocedural prediction would be a false positive.
func CalleeEntryWaits(m *ir.Module) map[string][]int {
	out := map[string][]int{}
	for _, f := range m.Funcs {
		if len(f.Blocks) == 0 {
			continue
		}
		entry := f.Entry()
		for i := range entry.Instrs {
			in := &entry.Instrs[i]
			if in.Op == ir.OpWait || in.Op == ir.OpWaitN {
				out[f.Name] = append(out[f.Name], in.Bar)
			}
		}
	}
	return out
}

// JoinedAtWithCalls runs the forward joined-barrier analysis of equation
// (1) with cancels as clears and calls clearing their callee's
// entry-waited barriers, refined to instruction granularity: the joined
// set *before* each instruction.
func JoinedAtWithCalls(f *ir.Function, info *cfg.Info, nb int, entryWaits map[string][]int) *PointSets {
	return refine(f, Solve(f, info, joinedWithCallsProblem(nb, entryWaits)), func(set Bits, in *ir.Instr) {
		switch in.Op {
		case ir.OpJoin:
			set.Set(in.Bar)
		case ir.OpWait, ir.OpWaitN, ir.OpCancel:
			set.Clear(in.Bar)
		case ir.OpCall:
			for _, bar := range entryWaits[in.Callee] {
				set.Clear(bar)
			}
		}
	})
}

func joinedWithCallsProblem(nb int, entryWaits map[string][]int) Problem {
	return Problem{Dir: Forward, NumBits: nb, Summarize: func(b *ir.Block, gen, kill Bits) {
		for i := range b.Instrs {
			switch in := &b.Instrs[i]; in.Op {
			case ir.OpJoin:
				gen.Set(in.Bar)
				kill.Clear(in.Bar)
			case ir.OpWait, ir.OpWaitN, ir.OpCancel:
				gen.Clear(in.Bar)
				kill.Set(in.Bar)
			case ir.OpCall:
				for _, bar := range entryWaits[in.Callee] {
					gen.Clear(bar)
					kill.Set(bar)
				}
			}
		}
	}}
}

// Release adds to set the barriers in releases: the barrier of a wait
// or a cancel, and every barrier the callee of a call waits on at entry.
// Barriers at or past nb are ignored.
func Release(set Bits, in *ir.Instr, nb int, entryWaits map[string][]int) {
	switch in.Op {
	case ir.OpWait, ir.OpWaitN, ir.OpCancel:
		if in.Bar < nb {
			set.Set(in.Bar)
		}
	case ir.OpCall:
		for _, bar := range entryWaits[in.Callee] {
			if bar < nb {
				set.Set(bar)
			}
		}
	}
}

// ReleasedAhead is the backward may-analysis behind the dead-join note:
// on the equation-2 solver with the release set extended to cancels and
// calls (Release), and nothing killing it, OUT of a block holds the
// barriers some path leaving the block releases.
func ReleasedAhead(f *ir.Function, info *cfg.Info, nb int, entryWaits map[string][]int) *Result {
	return Solve(f, info, releasedAheadProblem(nb, entryWaits))
}

func releasedAheadProblem(nb int, entryWaits map[string][]int) Problem {
	return Problem{Dir: Backward, NumBits: nb, Summarize: func(b *ir.Block, gen, _ Bits) {
		for i := range b.Instrs {
			Release(gen, &b.Instrs[i], nb, entryWaits)
		}
	}}
}
