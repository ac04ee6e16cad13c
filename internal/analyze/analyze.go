package analyze

import (
	"fmt"
	"sort"

	"specrecon/internal/cfg"
	"specrecon/internal/dataflow"
	"specrecon/internal/ir"
)

// BarrierClass says why a barrier exists (core names it BarrierKind and
// records one per barrier its passes mint). It gates the class-gated
// checks: the rejoin discipline only binds speculative barriers, the
// conflict check only indicts speculative/exit live ranges, and the
// lost-wait rule only applies to compiler-minted barriers.
type BarrierClass int

const (
	// ClassUser marks barriers already present in the input IR.
	ClassUser BarrierClass = iota
	// ClassPDOM marks baseline post-dominator barriers.
	ClassPDOM
	// ClassSpec marks speculative reconvergence barriers (the paper's b0).
	ClassSpec
	// ClassExit marks the orthogonal region-exit barriers (the paper's b1).
	ClassExit
	// ClassSpecCall marks interprocedural speculative barriers (§4.4),
	// excluded from conflict analysis like the deconflict pass excludes
	// them.
	ClassSpecCall
)

func (c BarrierClass) String() string {
	switch c {
	case ClassUser:
		return "user"
	case ClassPDOM:
		return "pdom"
	case ClassSpec:
		return "spec"
	case ClassExit:
		return "exit"
	case ClassSpecCall:
		return "speccall"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Options configures Analyze.
type Options struct {
	// ClassOf maps a barrier register to its class. When nil the module
	// is treated as raw input (every barrier ClassUser) and the
	// class-gated checks — lost wait (SR1003), rejoin discipline
	// (SR1004), live-range conflicts (SR1005) — are skipped, matching
	// the historical split where only compiled modules carry barrier
	// provenance.
	ClassOf func(bar int) BarrierClass
	// EffNoteBelow, when positive, emits a CodeLowEfficiency note for
	// every kernel whose static SIMT-efficiency estimate falls below it
	// (the paper screens at 0.8).
	EffNoteBelow float64
}

// Report is the analyzer's result over one module.
type Report struct {
	// Diags holds every finding, module-level checks first, then
	// function order; deterministic for a given module.
	Diags []Diagnostic
	// Efficiency maps each kernel (function not called from anywhere in
	// the module) to its static SIMT-efficiency estimate in (0, 1].
	Efficiency map[string]float64
}

// Errors returns the error-severity findings.
func (r *Report) Errors() []Diagnostic { return Filter(r.Diags, SeverityError) }

// Analyze runs every check over m. It never fails: findings are
// diagnostics, and a module too malformed to analyze (no functions, no
// blocks) yields an empty report. The input is not modified beyond
// Reindex.
func Analyze(m *ir.Module, opts Options) *Report { return NewFacts(m).Analyze(opts) }

// Analyze is the package-level Analyze over the record's module, reading
// each function's CFG and divergence analysis from the record — the
// same ones the efficiency estimate after the checks reads.
func (fa *Facts) Analyze(opts Options) *Report {
	m := fa.m
	r := &Report{Efficiency: map[string]float64{}}
	if m == nil || len(m.Funcs) == 0 {
		return r
	}

	called := calledFunctions(m)
	entryWaits := dataflow.CalleeEntryWaits(m)
	nb := dataflow.ModuleNumBarriers(m)
	classed := opts.ClassOf != nil
	classOf := opts.ClassOf
	if classOf == nil {
		classOf = func(int) BarrierClass { return ClassUser }
	}

	r.Diags = append(r.Diags, Pairing(m, opts.ClassOf)...)

	for _, f := range m.Funcs {
		if len(f.Blocks) == 0 {
			continue
		}
		info, div := fa.CFG(f), fa.Divergence(f)

		for _, b := range f.Blocks {
			if !info.Reachable(b) {
				r.Diags = append(r.Diags, Diagnostic{
					Code: CodeUnreachableBlock, Severity: SeverityWarning,
					Fn: f.Name, Block: b.Name, Msg: "unreachable block",
				})
			}
		}
		if !called[f.Name] {
			r.Diags = append(r.Diags, uninitDiags(f, info)...)
		}

		// One interpreter fixpoint per function serves the conflict
		// phrasing and the wait notes.
		st := Interp(f, info, div, nb, entryWaits, !called[f.Name])
		r.Diags = append(r.Diags, exitPathDiags(f, info, nb, entryWaits, called, classOf, classed)...)
		if classed {
			r.Diags = append(r.Diags, rejoinDiags(f, info, classOf)...)
			r.Diags = append(r.Diags, conflictDiags(f, info, st, classOf)...)
		}
		r.Diags = append(r.Diags, waitNoteDiags(f, info, st)...)
		r.Diags = append(r.Diags, deadJoinDiags(f, info, nb, entryWaits)...)
	}

	// Identical findings reachable via multiple interprocedural call
	// paths (module-granularity checks over a shared call graph) are
	// reported once.
	r.Diags = Dedupe(r.Diags)

	r.Efficiency = efficiency(fa, called)
	if opts.EffNoteBelow > 0 {
		kernels := make([]string, 0, len(r.Efficiency))
		for name := range r.Efficiency {
			kernels = append(kernels, name)
		}
		sort.Strings(kernels)
		for _, name := range kernels {
			if eff := r.Efficiency[name]; eff < opts.EffNoteBelow {
				r.Diags = append(r.Diags, Diagnostic{
					Code: CodeLowEfficiency, Severity: SeverityNote, Fn: name,
					Msg: fmt.Sprintf("static SIMT-efficiency estimate %.0f%% is below %.0f%%", eff*100, opts.EffNoteBelow*100),
					Fix: "a candidate for speculative reconvergence: annotate the divergent hot path with a Predict",
				})
			}
		}
	}
	return r
}

// calledFunctions returns the set of functions invoked by OpCall
// anywhere in the module. Their rets return to the caller; everything
// else is a kernel whose rets/exits terminate the thread.
func calledFunctions(m *ir.Module) map[string]bool {
	called := map[string]bool{}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if in := &b.Instrs[i]; in.Op == ir.OpCall {
					called[in.Callee] = true
				}
			}
		}
	}
	return called
}

// Pairing checks module-level join/wait pairing. Barrier registers are
// warp state shared across the whole call graph (the interprocedural
// variant legitimately joins a barrier in a caller while waiting on it
// at a callee's entry), so pairing is checked at module granularity.
// classOf may be nil; the lost-wait rule for compiler-minted barriers
// needs it and is skipped otherwise.
func Pairing(m *ir.Module, classOf func(int) BarrierClass) []Diagnostic {
	nb := dataflow.ModuleNumBarriers(m)
	joins := make([]bool, nb)
	waits := make([]bool, nb)
	clears := make([]bool, nb) // wait or cancel
	where := make([]string, nb)
	// joinPos anchors SR1003 at the (last) join; waitPos collects every
	// wait so SR1001 can anchor at the first one and carry delete edits
	// for all of them.
	type pos struct {
		fn, block string
		idx       int
	}
	joinPos := make([]pos, nb)
	waitPos := make([][]pos, nb)
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if !in.Op.IsBarrierOp() || in.Bar >= nb {
					continue
				}
				switch in.Op {
				case ir.OpJoin:
					joins[in.Bar] = true
					where[in.Bar] = f.Name + "." + b.Name
					joinPos[in.Bar] = pos{f.Name, b.Name, i}
				case ir.OpWait, ir.OpWaitN:
					waits[in.Bar] = true
					clears[in.Bar] = true
					waitPos[in.Bar] = append(waitPos[in.Bar], pos{f.Name, b.Name, i})
				case ir.OpCancel:
					clears[in.Bar] = true
				}
			}
		}
	}
	var out []Diagnostic
	for bar := 0; bar < nb; bar++ {
		if waits[bar] && !joins[bar] {
			// No join exists module-wide, so each wait releases an empty
			// cohort immediately — deleting the orphaned waits is a
			// behavior-preserving repair (restoring the lost join would
			// need the original reconvergence intent, which is gone).
			first := waitPos[bar][0]
			var edits []Edit
			for _, wp := range waitPos[bar] {
				edits = append(edits, Edit{Kind: EditDelete, Fn: wp.fn, Block: wp.block, Index: wp.idx})
			}
			out = append(out, Diagnostic{
				Code: CodeWaitNeverJoined, Severity: SeverityError,
				Fn: first.fn, Block: first.block, Instr: first.idx + 1,
				Msg:   fmt.Sprintf("b%d is waited on but never joined (lost JoinBarrier)", bar),
				Fix:   fmt.Sprintf("join b%d before the wait, or delete the wait", bar),
				Edits: edits,
			})
		}
		if classOf != nil && joins[bar] && !waits[bar] && classOf(bar) != ClassUser {
			jp := joinPos[bar]
			out = append(out, Diagnostic{
				Code: CodeLostWait, Severity: SeverityError,
				Fn: jp.fn, Block: jp.block, Instr: jp.idx + 1,
				Msg: fmt.Sprintf("%s barrier b%d is joined but never waited (lost WaitBarrier; joined at %s)", classOf(bar), bar, where[bar]),
				// Deliberately no Edits: the sound position of the lost
				// wait (the reconvergence point) cannot be reconstructed
				// from the diagnostic, so SR1003 is unrepairable by design
				// and the kernel falls back to PDOM.
			})
		}
		if joins[bar] && !clears[bar] {
			out = append(out, Diagnostic{
				Code: CodeJoinedNeverCleared, Severity: SeverityWarning, Fn: m.Name, Block: where[bar],
				Msg: fmt.Sprintf("b%d is joined but never waited or cancelled", bar),
				Fix: fmt.Sprintf("wait on b%d at the reconvergence point, or cancel it where lanes leave", bar),
			})
		}
	}
	return out
}

// uninitDiags reports registers that are live into the entry block:
// some path reads them before any write. Called functions are exempt
// (their low registers are parameters by convention).
func uninitDiags(f *ir.Function, info *cfg.Info) []Diagnostic {
	ints, floats := dataflow.RegLiveness(f, info)
	entry := f.Entry().Index
	var regs []string
	ints.In(entry).ForEach(func(r int) {
		regs = append(regs, fmt.Sprintf("r%d", r))
	})
	floats.In(entry).ForEach(func(r int) {
		regs = append(regs, fmt.Sprintf("f%d", r))
	})
	if len(regs) == 0 {
		return nil
	}
	sort.Strings(regs)
	return []Diagnostic{{
		Code: CodeUninitializedRead, Severity: SeverityWarning,
		Fn: f.Name, Block: f.Entry().Name,
		Msg: fmt.Sprintf("registers possibly read before written: %v", regs),
	}}
}

// exitPathDiags reports barriers still joined at a thread-exiting
// terminator on some path — the equation-1 joined set (cancels as
// clears, calls clearing callee entry waits) must be empty wherever a
// lane can leave the kernel.
func exitPathDiags(f *ir.Function, info *cfg.Info, nb int, entryWaits map[string][]int, called map[string]bool, classOf func(int) BarrierClass, classed bool) []Diagnostic {
	var out []Diagnostic
	at := dataflow.JoinedAtWithCalls(f, info, nb, entryWaits)
	for _, b := range f.Blocks {
		if !info.Reachable(b) || len(b.Instrs) == 0 {
			continue
		}
		t := b.Terminator()
		if t.Op != ir.OpExit && (t.Op != ir.OpRet || called[f.Name]) {
			continue
		}
		at.Before(b.Index, len(b.Instrs)-1).ForEach(func(bar int) {
			msg := fmt.Sprintf("b%d may still be joined when threads exit here (no wait or cancel on some path)", bar)
			if classed {
				msg = fmt.Sprintf("%s barrier b%d may still be joined when threads exit (missing release on this path)", classOf(bar), bar)
			}
			out = append(out, Diagnostic{
				Code: CodeJoinedAtExit, Severity: SeverityError,
				Fn: f.Name, Block: b.Name, Instr: len(b.Instrs),
				Msg: msg,
				Fix: fmt.Sprintf("cancel b%d before the terminator of %q", bar, b.Name),
				Edits: []Edit{{
					Kind: EditInsert, Fn: f.Name, Block: b.Name,
					Index: len(b.Instrs) - 1, Op: ir.OpCancel, Bar: bar,
				}},
			})
		})
	}
	return out
}

// rejoinDiags checks the Figure 4(d) wait+rejoin discipline: a wait on
// a speculative barrier inside a cycle — i.e. the wait can execute
// again — must be immediately followed by a rejoin of the same barrier,
// or later iterations' arrivals have no participants to converge with.
func rejoinDiags(f *ir.Function, info *cfg.Info, classOf func(int) BarrierClass) []Diagnostic {
	var out []Diagnostic
	for _, b := range f.Blocks {
		if !info.Reachable(b) {
			continue
		}
		var onCycle, cycleKnown bool
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if (in.Op != ir.OpWait && in.Op != ir.OpWaitN) || classOf(in.Bar) != ClassSpec {
				continue
			}
			if !cycleKnown {
				reach := cfg.CanReach(f, info, b)
				for _, s := range b.Succs {
					if reach[s.Index] {
						onCycle = true
						break
					}
				}
				cycleKnown = true
			}
			if !onCycle {
				continue
			}
			if i+1 >= len(b.Instrs) || b.Instrs[i+1].Op != ir.OpJoin || b.Instrs[i+1].Bar != in.Bar {
				out = append(out, Diagnostic{
					Code: CodeLostRejoin, Severity: SeverityError,
					Fn: f.Name, Block: b.Name, Instr: i + 1,
					Msg: fmt.Sprintf("speculative barrier b%d waits on a looping path without an immediate rejoin (lost RejoinBarrier)", in.Bar),
					Fix: fmt.Sprintf("insert join b%d immediately after the wait", in.Bar),
					Edits: []Edit{{
						Kind: EditInsert, Fn: f.Name, Block: b.Name,
						Index: i + 1, Op: ir.OpJoin, Bar: in.Bar,
					}},
				})
			}
		}
	}
	return out
}

// conflictDiags re-runs the §4.3 conflict analysis against f's
// speculative and region-exit barriers. After deconfliction no conflict
// may remain; any that does deadlocks the warp at runtime, each cohort
// blocked at its wait while still holding the other's barrier joined.
// Interprocedural (ClassSpecCall) barriers are excluded, as in the
// deconflict pass.
func conflictDiags(f *ir.Function, info *cfg.Info, st *FuncStates, classOf func(int) BarrierClass) []Diagnostic {
	specBars := map[int]bool{}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if !in.Op.IsBarrierOp() {
				continue
			}
			if c := classOf(in.Bar); c == ClassSpec || c == ClassExit {
				specBars[in.Bar] = true
			}
		}
	}
	if len(specBars) == 0 {
		return nil
	}
	conflicts := dataflow.FindConflicts(f, info, specBars)
	if len(conflicts) == 0 {
		return nil
	}

	// Phrase the deadlock with the interpreter: at the speculative
	// wait, the conflicting barrier is still joined on some path. The
	// returned index anchors the diagnostic and places the repair edit.
	stillJoinedAtWait := func(spec, other int) (string, int, bool) {
		for _, b := range f.Blocks {
			found := -1
			st.ForEachInstr(b, func(i int, pre []BarState) {
				in := &b.Instrs[i]
				if found < 0 && (in.Op == ir.OpWait || in.Op == ir.OpWaitN) && in.Bar == spec &&
					other < len(pre) && pre[other].Has(StateJoined) {
					found = i
				}
			})
			if found >= 0 {
				return b.Name, found, true
			}
		}
		return "", 0, false
	}

	var out []Diagnostic
	for _, pair := range conflicts {
		spec, other := pair[0], pair[1]
		d := Diagnostic{
			Code: CodeResidualConflict, Severity: SeverityError, Fn: f.Name,
			Msg: fmt.Sprintf("residual live-range conflict between b%d and b%d after deconfliction (would deadlock, §4.3)", spec, other),
		}
		if blk, idx, ok := stillJoinedAtWait(spec, other); ok {
			d.Block, d.Instr = blk, idx+1
			d.Fix = fmt.Sprintf("b%d is waiting at %q while b%d is still joined: cancel b%d before that wait (dynamic deconfliction)", spec, blk, other, other)
			// The repair is exactly what dynamic deconfliction would
			// have emitted: cancel the conflicting barrier right
			// before the speculative wait (Figure 5(c)).
			d.Edits = []Edit{{
				Kind: EditInsert, Fn: f.Name, Block: blk,
				Index: idx, Op: ir.OpCancel, Bar: other,
			}}
		}
		out = append(out, d)
	}
	return out
}

// waitNoteDiags emits the empty-cohort note: a reachable wait whose
// barrier no path into it holds joined. The wait releases immediately —
// harmless at runtime, but the synchronization the wait was supposed to
// provide does not happen, so it is worth a note even when module-level
// pairing is satisfied (the join may sit on a dead path).
func waitNoteDiags(f *ir.Function, info *cfg.Info, st *FuncStates) []Diagnostic {
	var out []Diagnostic
	for _, b := range f.Blocks {
		if !info.Reachable(b) {
			continue
		}
		st.ForEachInstr(b, func(i int, pre []BarState) {
			in := &b.Instrs[i]
			if in.Op != ir.OpWait && in.Op != ir.OpWaitN {
				return
			}
			if in.Bar >= st.NB || pre[in.Bar].Has(StateJoined) {
				return
			}
			out = append(out, Diagnostic{
				Code: CodeEmptyCohortWait, Severity: SeverityNote,
				Fn: f.Name, Block: b.Name, Instr: i + 1,
				Msg: fmt.Sprintf("no path into this wait joins b%d (abstract state: %s): the wait releases an empty cohort", in.Bar, pre[in.Bar]),
			})
		})
	}
	return out
}

// deadJoinDiags emits the dead-join note: a join after which no path
// releases the barrier — no wait, no cancel, no call whose callee entry
// waits on it (dataflow.ReleasedAhead).
func deadJoinDiags(f *ir.Function, info *cfg.Info, nb int, entryWaits map[string][]int) []Diagnostic {
	res := dataflow.ReleasedAhead(f, info, nb, entryWaits)

	var out []Diagnostic
	for _, b := range f.Blocks {
		if !info.Reachable(b) {
			continue
		}
		// ahead[i] = releases on some path strictly after instruction i.
		ahead := res.Out(b.Index).Clone()
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			if in.Op == ir.OpJoin && in.Bar < nb && !ahead.Has(in.Bar) {
				out = append(out, Diagnostic{
					Code: CodeDeadJoin, Severity: SeverityNote,
					Fn: f.Name, Block: b.Name, Instr: i + 1,
					Msg: fmt.Sprintf("join of b%d is never released on any path ahead (participation leaks until thread exit)", in.Bar),
				})
			}
			dataflow.Release(ahead, in, nb, entryWaits)
		}
	}
	// Emission above runs bottom-up per block; restore top-down order.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Block != out[j].Block {
			return false
		}
		return out[i].Instr < out[j].Instr
	})
	return out
}
