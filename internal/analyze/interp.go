package analyze

import (
	"strings"

	"specrecon/internal/cfg"
	"specrecon/internal/divergence"
	"specrecon/internal/ir"
)

// The barrier-state abstract interpreter. Each convergence barrier is
// tracked through the protocol lattice
//
//	unallocated (unjoined) → joined → waiting → released / cancelled
//
// abstracted as a *set* of states per (program point, barrier): the
// union over all acyclic paths of the state a lane following that path
// would hold. A singleton set is a precise fact ("every path joined b2
// here"); two or more states is the lattice's ⊤ family — paths disagree,
// and below a divergent branch the disagreement is simultaneous (lanes
// of one warp hold different states at once) rather than alternative.
//
// The interpreter is interprocedural in the same sense as the
// equation-1 analysis it refines: a call releases the barriers its
// callee's entry block waits on (§4.4), and functions reachable via
// calls are seeded with "the caller may have joined anything".

// BarState is a set of abstract protocol states, one bit per state.
type BarState uint8

const (
	// StateUnjoined: the barrier is allocated but this path never joined
	// it (the "unallocated" point of the lattice).
	StateUnjoined BarState = 1 << iota
	// StateJoined: a join executed and no release has happened yet; the
	// lane participates in the cohort.
	StateJoined
	// StateWaiting: the transient state while a lane blocks at a
	// WaitBarrier, between arrival and cohort release. It never
	// propagates past the wait (the post-state is StateReleased); the
	// conflict explainer uses it to phrase deadlocks ("b2 waits while b1
	// is still joined").
	StateWaiting
	// StateReleased: cleared by a completed wait (or by a callee's entry
	// wait).
	StateReleased
	// StateCancelled: cleared by CancelBarrier; the lane dropped out of
	// the cohort without synchronizing.
	StateCancelled
)

// Has reports whether s contains every state of t.
func (s BarState) Has(t BarState) bool { return s&t == t }

func (s BarState) String() string {
	if s == 0 {
		return "⊥"
	}
	var parts []string
	for _, p := range []struct {
		st   BarState
		name string
	}{
		{StateUnjoined, "unjoined"},
		{StateJoined, "joined"},
		{StateWaiting, "waiting"},
		{StateReleased, "released"},
		{StateCancelled, "cancelled"},
	} {
		if s&p.st != 0 {
			parts = append(parts, p.name)
		}
	}
	return strings.Join(parts, "|")
}

// FuncStates is the interpreter's fixpoint over one function: the
// per-barrier state sets at every block boundary. Unreachable blocks
// stay ⊥ (all zero).
type FuncStates struct {
	Fn *ir.Function
	NB int
	// In and Out are indexed [Block.Index][barrier].
	In, Out [][]BarState
	// Div is the divergence analysis the interpreter path-split against;
	// Div.DivergentBlock distinguishes simultaneous (intra-warp) state
	// mixes from alternative (path-choice) ones.
	Div *divergence.Info

	entryWaits map[string][]int
	// slab holds the In and Out rows, then Interp's working row and
	// ForEachInstr's, for the next Interp into fs to reclaim.
	slab []BarState
}

// Interp runs the abstract interpretation of f to a fixed point into
// fs, rebuilding every row in fs's storage (the zero FuncStates has
// none). entryWaits is the §4.4 callee summary
// (dataflow.CalleeEntryWaits); isKernel marks functions whose entry is a
// thread entry point — called functions instead inherit "possibly
// joined by the caller" seeds so their entry waits are not mistaken for
// empty cohorts.
func (fs *FuncStates) Interp(f *ir.Function, info *cfg.Info, div *divergence.Info, nb int, entryWaits map[string][]int, isKernel bool) {
	n := len(f.Blocks)
	fs.Fn, fs.NB, fs.Div, fs.entryWaits = f, nb, div, entryWaits
	fs.In, fs.Out, fs.slab = cfg.Reuse(fs.In, n), cfg.Reuse(fs.Out, n), cfg.Reuse(fs.slab, (2*n+2)*nb)
	row := func(i int) []BarState { return fs.slab[i*nb : (i+1)*nb : (i+1)*nb] }
	for i := range n {
		fs.In[i], fs.Out[i] = row(i), row(n+i)
	}
	if n == 0 {
		return
	}

	seed := StateUnjoined
	if !isKernel {
		seed |= StateJoined
	}
	entry := f.Entry().Index

	// The per-block transfer overwrites a touched barrier's set with a
	// constant, so in → out is monotone and the union merge drives the
	// worklist to a fixed point.
	cur := row(2 * n)
	changed := true
	for changed {
		changed = false
		for _, b := range info.RPO {
			i := b.Index
			in := fs.In[i]
			for bar := 0; bar < nb; bar++ {
				in[bar] = 0
			}
			if i == entry {
				for bar := 0; bar < nb; bar++ {
					in[bar] = seed
				}
			}
			for _, pr := range info.Preds[i] {
				po := fs.Out[pr.Index]
				for bar := 0; bar < nb; bar++ {
					in[bar] |= po[bar]
				}
			}
			copy(cur, in)
			for k := range b.Instrs {
				fs.apply(cur, &b.Instrs[k])
			}
			out := fs.Out[i]
			for bar := 0; bar < nb; bar++ {
				if out[bar] != cur[bar] {
					out[bar] = cur[bar]
					changed = true
				}
			}
		}
	}
}

// apply is the abstract transfer function of one instruction.
func (fs *FuncStates) apply(st []BarState, in *ir.Instr) {
	switch in.Op {
	case ir.OpJoin:
		if in.Bar < fs.NB {
			st[in.Bar] = StateJoined
		}
	case ir.OpWait, ir.OpWaitN:
		// The lane passes through StateWaiting while blocked; the
		// post-state once the cohort releases is StateReleased.
		if in.Bar < fs.NB {
			st[in.Bar] = StateReleased
		}
	case ir.OpCancel:
		if in.Bar < fs.NB {
			st[in.Bar] = StateCancelled
		}
	case ir.OpCall:
		for _, bar := range fs.entryWaits[in.Callee] {
			if bar < fs.NB {
				st[bar] = StateReleased
			}
		}
	}
}

// ForEachInstr calls fn with the state sets immediately before every
// instruction of b, in order. The pre slice is reused between calls; fn
// must not retain it.
func (fs *FuncStates) ForEachInstr(b *ir.Block, fn func(i int, pre []BarState)) {
	cur := fs.slab[len(fs.slab)-fs.NB:]
	copy(cur, fs.In[b.Index])
	for i := range b.Instrs {
		fn(i, cur)
		fs.apply(cur, &b.Instrs[i])
	}
}
