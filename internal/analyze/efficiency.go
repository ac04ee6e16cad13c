package analyze

import (
	"slices"

	"specrecon/internal/cfg"
	"specrecon/internal/dataflow"
	"specrecon/internal/divergence"
	"specrecon/internal/ir"
)

// Static SIMT-efficiency estimation. The simulator measures efficiency
// as active-lane-cycles over issued-cycles (paper Figure 7); this file
// predicts that ratio from the IR alone:
//
//	eff(f) = Σ_b freq(b)·cost(b)·lanes(b) / Σ_b freq(b)·cost(b)
//
// where freq is an acyclic branch-probability propagation scaled by
// loop trip counts, cost is the issue latency of the block's
// instructions (calls folded in from the callee, memoized across the
// call graph), and lanes is the fraction of a warp active in the block
// — 1 outside divergent regions, attenuated by the side probability of
// every divergent branch whose region contains the block.
//
// The estimate is deliberately coarse: its contract is not absolute
// accuracy but preserving the *ranking* of kernels by divergence, so
// sasmvet can screen corpora for speculative-reconvergence candidates
// the same way Figure 7 orders its workloads.

// defaultTrip is assumed for loops whose trip count the bound heuristic
// cannot see.
const defaultTrip = 8

// maxTrip clamps recovered trip counts so one pathological bound does
// not drown every other block's contribution.
const maxTrip = 64

// Efficiency returns the static SIMT-efficiency estimate of every
// kernel (function not called from anywhere) in m, in (0, 1].
func Efficiency(m *ir.Module) map[string]float64 {
	fa := NewFacts(m)
	defer fa.Retire()
	return efficiency(fa, calledFunctions(m))
}

// efficiency is Efficiency given the module's analysis record and
// called set.
func efficiency(fa *Facts, called map[string]bool) map[string]float64 {
	fa.est.reset(fa.m)
	out := map[string]float64{}
	for _, f := range fa.m.Funcs {
		if called[f.Name] || len(f.Blocks) == 0 {
			continue
		}
		fc := fa.fold(f.Name)
		eff := 1.0
		if fc.cost > 0 {
			eff = fc.activeCost / fc.cost
		}
		out[f.Name] = eff
	}
	return out
}

// funcCost is the callable summary of one function: total issue cost
// and lane-weighted issue cost per invocation.
type funcCost struct {
	cost, activeCost float64
}

// estimator is the storage of an efficiency estimate, kept in the
// analysis record and rebuilt by every estimate.
type estimator struct {
	// fns[i] is what the estimate knows of the module's i-th function.
	fns []fnEstimate
	// vals holds each function's block frequencies, lane fractions and
	// side probabilities, three rows of its block count from fns[i].off:
	// a fold reads its rows across the folds of its callees.
	vals []float64
	// side, stack and drained are laneFractions' scratch.
	side    [2]dataflow.Bits
	stack   []*ir.Block
	drained []*cfg.Loop
}

// fnEstimate is one function's summary once done; active guards the
// fold against recursion.
type fnEstimate struct {
	funcCost
	off          int
	active, done bool
}

// reset empties the estimator for a module and lays out its rows.
func (e *estimator) reset(m *ir.Module) {
	e.fns = cfg.Reuse(e.fns, len(m.Funcs))
	n := 0
	for i, f := range m.Funcs {
		e.fns[i].off = n
		n += 3 * len(f.Blocks)
	}
	e.vals = cfg.Reuse(e.vals, n)
}

// fold computes (and memoizes) the cost summary of one function,
// folding callee summaries bottom-up through the call graph.
func (fa *Facts) fold(name string) funcCost {
	i := fa.m.FuncIndex(name)
	if i < 0 || len(fa.m.Funcs[i].Blocks) == 0 {
		return funcCost{}
	}
	fe := &fa.est.fns[i]
	if fe.done {
		return fe.funcCost
	}
	if fe.active {
		// Recursive cycle: account the call as its issue latency only.
		return funcCost{cost: float64(ir.OpCall.Latency()), activeCost: float64(ir.OpCall.Latency())}
	}
	f := fa.m.Funcs[i]
	fe.active = true

	info, div := fa.CFG(f), fa.Divergence(f)
	n := len(f.Blocks)
	rows := fa.est.vals[fe.off : fe.off+3*n]
	freq, lanes, sideProb := rows[:n], rows[n:2*n], rows[2*n:]
	blockFreqs(freq, f, info, div)
	fa.est.laneFractions(lanes, sideProb, f, info, div)

	var fc funcCost
	for _, b := range f.Blocks {
		if freq[b.Index] == 0 {
			continue
		}
		// freq conserves flow by splitting divergent branches like any
		// other — but a warp ISSUES both sides of a divergent branch in
		// full, so the issued weight divides the side probability back
		// out; the active weight keeps it (via lanes, which contains
		// sideProb as a factor).
		issued := freq[b.Index] / sideProb[b.Index]
		var cost float64
		for i := range b.Instrs {
			in := &b.Instrs[i]
			cost += float64(in.Op.Latency())
			if in.Op == ir.OpCall {
				callee := fa.fold(in.Callee)
				// The callee runs with the caller's lane population at
				// the call site; its internal divergence is already in
				// its activeCost ratio.
				// float64(…) forbids fusing the product into the sum
				// (arm64 would), so every host rounds the same.
				fc.cost += float64(issued * callee.cost)
				fc.activeCost += float64(issued * lanes[b.Index] * callee.activeCost)
			}
		}
		fc.cost += float64(issued * cost)
		fc.activeCost += float64(issued * lanes[b.Index] * cost)
	}
	fe.funcCost, fe.active, fe.done = fc, false, true
	return fc
}

// blockFreqs estimates per-block execution frequencies: an acyclic
// forward propagation in reverse postorder (back edges ignored) that
// splits conditional-branch weight by takenProb, then scales every
// block by the trip product of the loops containing it. A loop-exit
// branch passes full weight to BOTH successors — iterations are modeled
// by the trip multiplier, and the exit block should keep the loop's
// entry frequency, not 1/trip of it. freq arrives zeroed, one entry
// per block.
func blockFreqs(freq []float64, f *ir.Function, info *cfg.Info, div *divergence.Info) {
	if len(f.Blocks) == 0 {
		return
	}
	freq[f.Entry().Index] = 1

	isBackEdge := func(from, to *ir.Block) bool {
		for _, l := range info.Loops {
			if l.Header == to && l.Contains(from) {
				return true
			}
		}
		return false
	}

	for _, b := range info.RPO {
		fb := freq[b.Index]
		if fb == 0 || len(b.Instrs) == 0 {
			continue
		}
		t := b.Terminator()
		if t.Op == ir.OpCBr && len(b.Succs) == 2 {
			p := takenProb(b)
			w0, w1 := p, 1-p
			if loopExitBranch(b, info) {
				w0, w1 = 1, 1
			}
			if !isBackEdge(b, b.Succs[0]) {
				freq[b.Succs[0].Index] += float64(fb * w0) // unfused, as above
			}
			if !isBackEdge(b, b.Succs[1]) {
				freq[b.Succs[1].Index] += float64(fb * w1)
			}
			continue
		}
		for _, s := range b.Succs {
			if !isBackEdge(b, s) {
				freq[s.Index] += fb
			}
		}
	}

	for _, l := range info.Loops {
		trip := float64(tripCount(f, l))
		if divergentTripLoop(l, info, div) {
			// A warp stays in a divergent-trip loop until its LAST lane
			// finishes, so the issued-cycle weight follows the tail of
			// the trip distribution, not the mean the bound heuristic
			// (or its default) sees.
			trip *= divergentTripTailFactor
		}
		for _, b := range f.Blocks {
			if l.Contains(b) {
				freq[b.Index] *= trip
			}
		}
	}
}

// divergentTripTailFactor scales a divergent-trip loop's weight from
// the per-lane mean toward the warp's max-lane trip.
const divergentTripTailFactor = 3

// divergentTripLoop reports whether any exit branch of l diverges —
// lanes leave the loop at different iterations.
func divergentTripLoop(l *cfg.Loop, info *cfg.Info, div *divergence.Info) bool {
	for _, b := range l.Blocks {
		if div.DivergentBranch[b.Index] && loopExitBranch(b, info) && info.LoopOf(b) == l {
			return true
		}
	}
	return false
}

// loopExitBranch reports whether b's conditional branch leaves the
// innermost loop containing b on exactly one side.
func loopExitBranch(b *ir.Block, info *cfg.Info) bool {
	l := info.LoopOf(b)
	if l == nil || len(b.Succs) != 2 {
		return false
	}
	return l.Contains(b.Succs[0]) != l.Contains(b.Succs[1])
}

// takenProb estimates the probability of a conditional branch taking
// Succs[0]. A float compare against an immediate in (0, 1) — the idiom
// the workloads use for "this lane is in the p-fraction" — yields that
// immediate; everything else is an even split.
func takenProb(b *ir.Block) float64 {
	t := b.Terminator()
	if t.Op != ir.OpCBr || t.A < 0 {
		return 0.5
	}
	for i := len(b.Instrs) - 2; i >= 0; i-- {
		in := &b.Instrs[i]
		if in.Dst != t.A {
			continue
		}
		if in.Op == ir.OpFSetLT && in.BImm && in.FImm > 0 && in.FImm < 1 {
			return in.FImm
		}
		return 0.5
	}
	return 0.5
}

// tripCount recovers a loop's trip count from the common bounded-loop
// shape: a conditional in the header (or latch) comparing the induction
// variable with OpSetLT against a bound that is either an immediate or
// a unique OpConst in the function. Unrecognized loops default to
// defaultTrip; recovered bounds clamp to [1, maxTrip].
func tripCount(f *ir.Function, l *cfg.Loop) int {
	bound := func(b *ir.Block) (int, bool) {
		if len(b.Instrs) == 0 {
			return 0, false
		}
		t := b.Terminator()
		if t.Op != ir.OpCBr || t.A < 0 {
			return 0, false
		}
		for i := len(b.Instrs) - 2; i >= 0; i-- {
			in := &b.Instrs[i]
			if in.Dst != t.A {
				continue
			}
			if in.Op != ir.OpSetLT {
				return 0, false
			}
			if in.BImm {
				return int(in.Imm), true
			}
			return uniqueConst(f, in.B)
		}
		return 0, false
	}
	if n, ok := bound(l.Header); ok {
		return clampTrip(n)
	}
	for _, b := range l.Blocks {
		if b == l.Header {
			continue
		}
		for _, s := range b.Succs {
			if s == l.Header { // latch
				if n, ok := bound(b); ok {
					return clampTrip(n)
				}
			}
		}
	}
	return defaultTrip
}

func clampTrip(n int) int {
	if n < 1 {
		return 1
	}
	if n > maxTrip {
		return maxTrip
	}
	return n
}

// uniqueConst returns the immediate of the single OpConst defining reg
// in f, if exactly one exists.
func uniqueConst(f *ir.Function, reg ir.Reg) (int, bool) {
	val, n := 0, 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpConst && in.Dst == reg {
				val, n = int(in.Imm), n+1
			}
		}
	}
	return val, n == 1
}

// divergentLoopLaneFrac models a loop whose exit condition diverges —
// the iteration-delay / loop-merge pattern the paper targets. Lanes
// drain out of such a loop progressively as their (data-dependent,
// typically fat-tailed) trip counts run out, so averaged over the
// loop's lifetime well under half the warp is active; 0.3 matches the
// simulator's measured occupancy on the Figure-7 loop workloads.
const divergentLoopLaneFrac = 0.3

// laneFractions estimates the fraction of a warp active in every block
// (lanes) and, separately, the product of just the divergent-branch
// side probabilities (sideProb) — the factor blockFreqs also applied,
// which fold divides back out of the issued weight. A divergent
// loop-exit branch attenuates its whole loop by the progressive-drain
// factor (lanes only: the warp issues every iteration); every other
// divergent branch splits the warp — blocks reachable from exactly one
// side before the branch's immediate post-dominator get that side's
// probability as a multiplier, while blocks on both sides (or at/past
// the reconvergence point) are unaffected. Lane fractions floor at one
// lane; sideProb does not (it must mirror blockFreqs exactly). Both
// rows hold one entry per block.
func (e *estimator) laneFractions(lanes, sideProb []float64, f *ir.Function, info *cfg.Info, div *divergence.Info) {
	for i := range lanes {
		lanes[i] = 1
		sideProb[i] = 1
	}
	e.drained = e.drained[:0]
	for _, b := range f.Blocks {
		if !div.DivergentBranch[b.Index] || len(b.Succs) != 2 {
			continue
		}
		if loopExitBranch(b, info) {
			l := info.LoopOf(b)
			if !slices.Contains(e.drained, l) {
				e.drained = append(e.drained, l)
				for _, lb := range l.Blocks {
					lanes[lb.Index] *= divergentLoopLaneFrac
				}
			}
			continue
		}
		pd := info.Ipdom(b)
		p := takenProb(b)
		side0 := e.sideBlocks(0, len(f.Blocks), b.Succs[0], pd)
		side1 := e.sideBlocks(1, len(f.Blocks), b.Succs[1], pd)
		// A block on both sides sees the full warp pass through.
		side0.ForEach(func(idx int) {
			if !side1.Has(idx) {
				lanes[idx] *= p
				sideProb[idx] *= p
			}
		})
		side1.ForEach(func(idx int) {
			if !side0.Has(idx) {
				lanes[idx] *= 1 - p
				sideProb[idx] *= 1 - p
			}
		})
	}
	minLane := 1.0 / float64(ir.WarpWidth)
	for i := range lanes {
		if lanes[i] < minLane {
			lanes[i] = minLane
		}
	}
}

// sideBlocks collects in side row k the blocks, of n, reachable from
// start without passing through stop (the divergent region on one side
// of a branch).
func (e *estimator) sideBlocks(k, n int, start, stop *ir.Block) dataflow.Bits {
	out := dataflow.Bits(cfg.Reuse(e.side[k], (n+63)/64))
	e.side[k] = out
	if start == stop {
		return out
	}
	stack := append(e.stack[:0], start)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if out.Has(b.Index) || b == stop {
			continue
		}
		out.Set(b.Index)
		for _, s := range b.Succs {
			if s != stop && !out.Has(s.Index) {
				stack = append(stack, s)
			}
		}
	}
	e.stack = stack[:0]
	return out
}
