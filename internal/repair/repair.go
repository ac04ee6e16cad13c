// Package repair is the analysis-driven automated repair engine
// (GPURepair-style, arXiv 2011.08373): it takes the machine-applicable
// edits the static analyzer attaches to its error diagnostics
// (analyze.Edit), applies them to the module, re-runs the analysis, and
// iterates to a fixpoint under a bounded budget with oscillation
// detection. CompileSafe uses it to try repair-then-reverify before
// surrendering a kernel to the PDOM fail-safe, and `sasmvet -fix`
// exposes it on the command line.
//
// The per-SR-code edit synthesizers live where the diagnostics are
// emitted (internal/analyze); this package enforces the repair policy —
// which codes are machine-repairable at all — and owns the fixpoint
// driver. The policy only admits edits that are behavior-neutral or
// protocol-restoring:
//
//	SR1001 (wait never joined):   delete the orphaned waits — with no
//	                              join anywhere they release an empty
//	                              cohort immediately, so deletion is a
//	                              no-op at runtime.
//	SR1002 (joined at exit):      insert CancelBarrier before the
//	                              exiting terminator — the canonical
//	                              release for participation that would
//	                              otherwise leak.
//	SR1004 (lost rejoin):         insert JoinBarrier immediately after
//	                              the loop-carried speculative wait,
//	                              restoring the Figure 4(d) discipline.
//	SR1005 (residual conflict):   insert CancelBarrier of the
//	                              conflicting barrier before the
//	                              speculative wait — exactly what
//	                              dynamic deconfliction (§4.3) emits.
//	                              Applied ONE per iteration: a partial
//	                              overlap is reported from both sides,
//	                              and inserting both cancels at once
//	                              mutually truncates the pair into a new
//	                              partial overlap, while a single cancel
//	                              usually restores containment and the
//	                              re-analysis dissolves the symmetric
//	                              diagnostic for free.
//	SR1003 (lost wait):           unrepairable by design. The sound
//	                              position of a lost WaitBarrier is the
//	                              region's reconvergence point, which
//	                              the diagnostic cannot reconstruct; a
//	                              guessed wait could deadlock. These
//	                              kernels fall back to PDOM.
package repair

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"specrecon/internal/analyze"
	"specrecon/internal/ir"
)

// DefaultMaxIters bounds the fixpoint: each iteration applies a whole
// batch of edits, and every repairable code converges in one or two
// rounds, so a budget this small only trips on pathological inputs.
const DefaultMaxIters = 8

// Options configures Repair.
type Options struct {
	// ClassOf forwards barrier provenance to the analyzer (nil treats
	// the module as raw input, skipping the class-gated checks).
	ClassOf func(bar int) analyze.BarrierClass
	// EffNoteBelow forwards the low-efficiency note threshold so the
	// Before report matches what a plain analysis would show.
	EffNoteBelow float64
	// MaxIters bounds the fixpoint iterations (0 = DefaultMaxIters).
	MaxIters int
}

// GiveUpReason says why the fixpoint stopped with errors remaining.
type GiveUpReason string

const (
	// GaveUpNone: the fixpoint reached a clean re-analysis.
	GaveUpNone GiveUpReason = ""
	// GaveUpNoEdit: error diagnostics remain but none carries a
	// machine-applicable edit (e.g. SR1003).
	GaveUpNoEdit GiveUpReason = "no-edit"
	// GaveUpBudget: the iteration budget ran out before convergence.
	GaveUpBudget GiveUpReason = "budget"
	// GaveUpOscillation: an edit batch reproduced a module state already
	// visited — the repair loop is cycling, not converging.
	GaveUpOscillation GiveUpReason = "oscillation"
	// GaveUpBadEdit: an edit's anchor did not resolve against the
	// module (synthesizer/analyzer disagreement — a bug, surfaced
	// rather than papered over).
	GaveUpBadEdit GiveUpReason = "bad-edit"
)

// AppliedEdit records one edit the driver applied, with the iteration
// and the diagnostic code that requested it.
type AppliedEdit struct {
	Iter int
	Code analyze.Code
	Edit analyze.Edit
}

// Report is the typed result of one Repair run.
type Report struct {
	// Before is the full diagnostic report of the module as handed in
	// (errors, warnings, notes) — the findings the applied edits answer.
	Before []analyze.Diagnostic
	// Iterations counts the edit batches applied.
	Iterations int
	// Edits lists every applied edit in application order.
	Edits []AppliedEdit
	// Resolved lists the error codes present initially and absent after
	// the last iteration, ascending.
	Resolved []analyze.Code
	// Remaining holds the error diagnostics still present when the
	// driver stopped (empty on a clean fixpoint).
	Remaining []analyze.Diagnostic
	// GaveUp is GaveUpNone on success, else the stop reason.
	GaveUp GiveUpReason
}

// Clean reports whether repair converged to zero error diagnostics.
func (r *Report) Clean() bool { return len(r.Remaining) == 0 }

// Summary renders the report in one line for remarks and CLI output.
func (r *Report) Summary() string {
	if len(r.Edits) == 0 && r.Clean() {
		return "no repair needed"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d edit(s) in %d iteration(s)", len(r.Edits), r.Iterations)
	if len(r.Resolved) > 0 {
		codes := make([]string, len(r.Resolved))
		for i, c := range r.Resolved {
			codes[i] = string(c)
		}
		fmt.Fprintf(&sb, ", resolved %s", strings.Join(codes, " "))
	}
	if r.Clean() {
		sb.WriteString("; clean")
	} else {
		fmt.Fprintf(&sb, "; gave up (%s), %d error(s) remain", r.GaveUp, len(r.Remaining))
	}
	return sb.String()
}

// Repairable reports whether an edit synthesizer exists for code — i.e.
// whether a diagnostic of this code can carry machine edits at all.
func Repairable(code analyze.Code) bool {
	switch code {
	case analyze.CodeWaitNeverJoined, analyze.CodeJoinedAtExit,
		analyze.CodeLostRejoin, analyze.CodeResidualConflict:
		return true
	}
	return false
}

// EditsFor returns the machine edits the repair policy admits for d:
// the synthesized edits for repairable error codes, nil otherwise.
func EditsFor(d analyze.Diagnostic) []analyze.Edit {
	if d.Severity != analyze.SeverityError || !Repairable(d.Code) {
		return nil
	}
	return d.Edits
}

// Repair drives the analyze-edit-reanalyze fixpoint over m, mutating it
// in place (clone first to keep the original). It never fails: the
// outcome, including every stop reason, is the Report.
func Repair(m *ir.Module, opts Options) *Report { return RepairWith(analyze.NewFacts(m), opts) }

// RepairWith is Repair over the module of an analysis record the caller
// already holds. Every round re-analyzes through the record: the edits
// are barrier operations, which falsify nothing in it.
func RepairWith(fa *analyze.Facts, opts Options) *Report {
	m := fa.Module()
	maxIters := opts.MaxIters
	if maxIters <= 0 {
		maxIters = DefaultMaxIters
	}
	aOpts := analyze.Options{ClassOf: opts.ClassOf, EffNoteBelow: opts.EffNoteBelow}

	rep := fa.Analyze(aOpts)
	r := &Report{Before: rep.Diags}
	initial := errorCodes(rep.Errors())

	seen := map[uint64]bool{fingerprint(m): true}
	for iter := 1; ; iter++ {
		errs := rep.Errors()
		if len(errs) == 0 {
			break
		}
		r.Remaining = errs
		if iter > maxIters {
			r.GaveUp = GaveUpBudget
			break
		}
		batch := collectEdits(errs)
		if len(batch) == 0 {
			r.GaveUp = GaveUpNoEdit
			break
		}
		if err := applyEdits(m, batch); err != nil {
			r.GaveUp = GaveUpBadEdit
			break
		}
		r.Iterations = iter
		for _, e := range batch {
			r.Edits = append(r.Edits, AppliedEdit{Iter: iter, Code: e.code, Edit: e.edit})
		}
		rep = fa.Analyze(aOpts)
		r.Remaining = rep.Errors()
		if fp := fingerprint(m); seen[fp] {
			r.GaveUp = GaveUpOscillation
			break
		} else {
			seen[fp] = true
		}
	}

	remaining := errorCodes(r.Remaining)
	for _, c := range initial {
		still := false
		for _, rc := range remaining {
			if rc == c {
				still = true
				break
			}
		}
		if !still {
			r.Resolved = append(r.Resolved, c)
		}
	}
	return r
}

// codedEdit pairs an edit with the diagnostic code that requested it.
type codedEdit struct {
	code analyze.Code
	edit analyze.Edit
}

// collectEdits gathers the policy-admitted edits of one analysis round,
// deduplicated (two diagnostics may request the same mutation) and
// sorted for deterministic, index-safe application: within a block,
// higher indices first so earlier positions stay valid, deletes before
// inserts at equal index. SR1005 contributes at most one edit per round
// (see the package policy table): conflict cancels are applied one at a
// time so the fixpoint can observe which symmetric diagnostics each one
// dissolves.
func collectEdits(errs []analyze.Diagnostic) []codedEdit {
	var out []codedEdit
	seen := map[analyze.Edit]bool{}
	for _, d := range errs {
		for _, e := range EditsFor(d) {
			if seen[e] {
				continue
			}
			seen[e] = true
			out = append(out, codedEdit{code: d.Code, edit: e})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].edit, out[j].edit
		if a.Fn != b.Fn {
			return a.Fn < b.Fn
		}
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		if a.Index != b.Index {
			return a.Index > b.Index
		}
		if a.Kind != b.Kind {
			return a.Kind == analyze.EditDelete
		}
		if a.Bar != b.Bar {
			return a.Bar < b.Bar
		}
		return a.Op < b.Op
	})
	// Keep only the first conflict cancel; the rest re-synthesize (or
	// vanish) on the next analysis round.
	kept := out[:0]
	tookConflict := false
	for _, ce := range out {
		if ce.code == analyze.CodeResidualConflict {
			if tookConflict {
				continue
			}
			tookConflict = true
		}
		kept = append(kept, ce)
	}
	return kept
}

// applyEdits applies one sorted batch, validating every anchor: the
// named function and block must exist, indices must be in range, a
// delete must not remove a terminator and an insert must stay at or
// before it. Any violation aborts the whole batch.
func applyEdits(m *ir.Module, batch []codedEdit) error {
	blockOf := func(fn, block string) *ir.Block {
		for _, f := range m.Funcs {
			if f.Name != fn {
				continue
			}
			for _, b := range f.Blocks {
				if b.Name == block {
					return b
				}
			}
		}
		return nil
	}
	for _, ce := range batch {
		e := ce.edit
		b := blockOf(e.Fn, e.Block)
		if b == nil {
			return fmt.Errorf("repair: %s: no such block", e)
		}
		switch e.Kind {
		case analyze.EditInsert:
			if e.Index < 0 || e.Index > len(b.Instrs)-1 {
				return fmt.Errorf("repair: %s: insert index out of range (block has %d instructions)", e, len(b.Instrs))
			}
			b.InsertAt(e.Index, e.Instr())
		case analyze.EditDelete:
			if e.Index < 0 || e.Index >= len(b.Instrs)-1 {
				return fmt.Errorf("repair: %s: delete index out of range or names the terminator (block has %d instructions)", e, len(b.Instrs))
			}
			b.RemoveAt(e.Index)
		case analyze.EditReplaceBar:
			if e.Index < 0 || e.Index >= len(b.Instrs) {
				return fmt.Errorf("repair: %s: index out of range (block has %d instructions)", e, len(b.Instrs))
			}
			if !b.Instrs[e.Index].Op.IsBarrierOp() {
				return fmt.Errorf("repair: %s: instruction %q has no barrier operand", e, ir.FormatInstr(&b.Instrs[e.Index], nil))
			}
			b.Instrs[e.Index].Bar = e.Bar
		default:
			return fmt.Errorf("repair: %s: unknown edit kind", e)
		}
	}
	return nil
}

// errorCodes returns the distinct codes present, ascending.
func errorCodes(errs []analyze.Diagnostic) []analyze.Code {
	seen := map[analyze.Code]bool{}
	var out []analyze.Code
	for _, d := range errs {
		if !seen[d.Code] {
			seen[d.Code] = true
			out = append(out, d.Code)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// fingerprint hashes the module's canonical text for oscillation
// detection; every edit changes the print, so a repeated fingerprint
// means the loop revisited a prior state.
func fingerprint(m *ir.Module) uint64 {
	h := fnv.New64a()
	h.Write([]byte(ir.Print(m)))
	return h.Sum64()
}
