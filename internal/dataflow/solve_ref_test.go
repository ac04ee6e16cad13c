package dataflow

import (
	"specrecon/internal/cfg"
	"specrecon/internal/ir"
)

// solveRef is the solver this package used before Solve cut its rows
// from one slab, kept as the oracle of TestSolveMatchesReference: four
// separately allocated Bits per block, a private copy of the iteration
// order, and the forward and backward sweeps written out twice. It takes
// today's Problem (one Summarize filling both rows) so both solvers run
// the very same closures.
func solveRef(f *ir.Function, info *cfg.Info, p Problem) (in, out []Bits) {
	n := len(f.Blocks)
	in, out = make([]Bits, n), make([]Bits, n)
	gen := make([]Bits, n)
	kill := make([]Bits, n)
	for i, b := range f.Blocks {
		in[i] = NewBits(p.NumBits)
		out[i] = NewBits(p.NumBits)
		gen[i] = NewBits(p.NumBits)
		kill[i] = NewBits(p.NumBits)
		p.Summarize(b, gen[i], kill[i])
	}

	// Iteration order: RPO for forward problems, reverse RPO for
	// backward ones, repeated until stable.
	order := make([]*ir.Block, len(info.RPO))
	copy(order, info.RPO)
	if p.Dir == Backward {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}

	tmp := NewBits(p.NumBits)
	changed := true
	for changed {
		changed = false
		for _, b := range order {
			i := b.Index
			if p.Dir == Forward {
				// IN = union of predecessor OUTs
				for k := range in[i] {
					in[i][k] = 0
				}
				for _, pr := range info.Preds[i] {
					in[i].UnionWith(out[pr.Index])
				}
				// OUT = (IN - kill) | gen
				tmp.Copy(in[i])
				tmp.AndNot(kill[i])
				tmp.UnionWith(gen[i])
				if !tmp.Equal(out[i]) {
					out[i].Copy(tmp)
					changed = true
				}
			} else {
				// OUT = union of successor INs
				for k := range out[i] {
					out[i][k] = 0
				}
				for _, s := range b.Succs {
					out[i].UnionWith(in[s.Index])
				}
				// IN = (OUT - kill) | gen
				tmp.Copy(out[i])
				tmp.AndNot(kill[i])
				tmp.UnionWith(gen[i])
				if !tmp.Equal(in[i]) {
					in[i].Copy(tmp)
					changed = true
				}
			}
		}
	}
	return in, out
}

// SolveRef exports the reference solver to the external tests, which
// build their comparison set from packages that import this one.
var SolveRef = solveRef

// NamedProblem is one of the problems this repository solves.
type NamedProblem struct {
	Name string
	Problem
}

// Problems returns every Problem the repository builds for function f of
// module m, exactly as its analyses build them: the equation-1 joined
// sets with and without cancels and with calls, the equation-2 live
// ranges, integer and float register liveness, and the dead-join release
// sets.
func Problems(m *ir.Module, f *ir.Function) []NamedProblem {
	nb, mnb, waits := NumBarriers(f), ModuleNumBarriers(m), CalleeEntryWaits(m, nil)
	return []NamedProblem{
		{"joined", joinedProblem(nb, false)},
		{"joined-cancels", joinedProblem(nb, true)},
		{"joined-calls", joinedWithCallsProblem(mnb, waits)},
		{"live-range", liveProblem(nb)},
		{"int-liveness", regLiveProblem(f.NRegs, tagInt)},
		{"float-liveness", regLiveProblem(f.NFRegs, tagFloat)},
		{"dead-join", releasedAheadProblem(mnb, waits)},
	}
}
