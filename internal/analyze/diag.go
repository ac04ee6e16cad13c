// Package analyze is the static analyzer for the convergence-barrier
// protocol: an interprocedural abstract interpreter over the per-barrier
// state lattice (unallocated → joined → waiting → released/cancelled,
// plus ⊤ for paths that disagree), built on the CFG of internal/cfg, the
// equation-1/equation-2 solvers of internal/dataflow, and the divergence
// analysis of internal/divergence.
//
// Every check — the barrier-safety verifier's four properties, the lint
// checks, and the analyzer's own notes — reports through one Diagnostic
// type with a stable code (SR1xxx errors, SR2xxx warnings, SR3xxx
// notes), so core.Lint, the verifier, cmd/sasmvet and the SARIF emitter
// all share a single diagnostic model.
package analyze

import (
	"fmt"
	"sort"

	"specrecon/internal/ir"
)

// Severity orders diagnostics by how actionable they are: errors are
// protocol violations that deadlock or leak warp participation at
// runtime; warnings are defects that do not stop compilation; notes are
// advisory observations (empty cohorts, predicted low SIMT efficiency).
type Severity int

const (
	SeverityNote Severity = iota
	SeverityWarning
	SeverityError
)

func (s Severity) String() string {
	switch s {
	case SeverityNote:
		return "note"
	case SeverityWarning:
		return "warning"
	case SeverityError:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// ParseSeverity parses "note", "warning" or "error".
func ParseSeverity(s string) (Severity, error) {
	switch s {
	case "note":
		return SeverityNote, nil
	case "warning":
		return SeverityWarning, nil
	case "error":
		return SeverityError, nil
	}
	return 0, fmt.Errorf("unknown severity %q (want note, warning or error)", s)
}

// Code is a stable diagnostic identifier. Codes never change meaning;
// retired codes are not reused.
type Code string

const (
	// CodeWaitNeverJoined: a barrier is waited on but no JoinBarrier
	// exists anywhere in the module (lost JoinBarrier) — the wait
	// releases an empty cohort and the synchronization is gone.
	CodeWaitNeverJoined Code = "SR1001"
	// CodeJoinedAtExit: the equation-1 joined set is non-empty at a
	// thread-exiting terminator — some path lets a lane exit the kernel
	// while still participating in a barrier.
	CodeJoinedAtExit Code = "SR1002"
	// CodeLostWait: a compiler-minted barrier is joined but never
	// waited anywhere (lost WaitBarrier) — join+cancel-only
	// synchronization does nothing.
	CodeLostWait Code = "SR1003"
	// CodeLostRejoin: a speculative barrier's wait on a looping path has
	// no immediate rejoin (Figure 4(d)) — later iterations silently stop
	// converging.
	CodeLostRejoin Code = "SR1004"
	// CodeResidualConflict: two barrier live ranges overlap
	// non-inclusively (§4.3) — the warp deadlocks, each cohort blocked
	// on the other's barrier.
	CodeResidualConflict Code = "SR1005"

	// CodeUninitializedRead: a register is live into the kernel entry
	// block — some path reads it before any write.
	CodeUninitializedRead Code = "SR2001"
	// CodeUnreachableBlock: the block has no path from the entry.
	CodeUnreachableBlock Code = "SR2002"
	// CodeJoinedNeverCleared: a barrier is joined but no wait or cancel
	// exists anywhere in the module — a lane that executes the join can
	// never release its participation.
	CodeJoinedNeverCleared Code = "SR2003"

	// CodeEmptyCohortWait: no path into this wait joins the barrier —
	// the wait releases immediately with an empty cohort.
	CodeEmptyCohortWait Code = "SR3001"
	// CodeDeadJoin: no path ahead of this join releases the barrier
	// (wait, cancel, or a call whose entry waits on it) — participation
	// leaks until thread exit.
	CodeDeadJoin Code = "SR3002"
	// CodeLowEfficiency: the static SIMT-efficiency estimate of the
	// kernel falls below the report threshold — a candidate for
	// speculative reconvergence (the paper targets kernels under 80%).
	CodeLowEfficiency Code = "SR3003"
)

// CodeInfo is the registry entry of one diagnostic code.
type CodeInfo struct {
	Code     Code
	Severity Severity
	// Title is the SARIF rule shortDescription.
	Title string
}

var codeTable = map[Code]CodeInfo{
	CodeWaitNeverJoined:    {CodeWaitNeverJoined, SeverityError, "barrier waited on but never joined (lost JoinBarrier)"},
	CodeJoinedAtExit:       {CodeJoinedAtExit, SeverityError, "barrier may still be joined when threads exit"},
	CodeLostWait:           {CodeLostWait, SeverityError, "compiler-minted barrier joined but never waited (lost WaitBarrier)"},
	CodeLostRejoin:         {CodeLostRejoin, SeverityError, "speculative wait on a looping path without an immediate rejoin"},
	CodeResidualConflict:   {CodeResidualConflict, SeverityError, "barrier live ranges overlap non-inclusively (deadlock, §4.3)"},
	CodeUninitializedRead:  {CodeUninitializedRead, SeverityWarning, "register possibly read before written"},
	CodeUnreachableBlock:   {CodeUnreachableBlock, SeverityWarning, "unreachable block"},
	CodeJoinedNeverCleared: {CodeJoinedNeverCleared, SeverityWarning, "barrier joined but never waited or cancelled"},
	CodeEmptyCohortWait:    {CodeEmptyCohortWait, SeverityNote, "wait releases an empty cohort (no path joins the barrier)"},
	CodeDeadJoin:           {CodeDeadJoin, SeverityNote, "join is never released on any path ahead"},
	CodeLowEfficiency:      {CodeLowEfficiency, SeverityNote, "static SIMT-efficiency estimate below threshold"},
}

// Codes lists every registered diagnostic code in ascending order.
func Codes() []CodeInfo {
	out := make([]CodeInfo, 0, len(codeTable))
	for _, ci := range codeTable {
		out = append(out, ci)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}

// InfoFor returns the registry entry for a code; unknown codes get a
// warning-severity placeholder so third-party diagnostics still render.
func InfoFor(c Code) CodeInfo {
	if ci, ok := codeTable[c]; ok {
		return ci
	}
	return CodeInfo{Code: c, Severity: SeverityWarning, Title: string(c)}
}

// Diagnostic is one finding. The Fn/Block/Msg field names are load-
// bearing: core.SafetyViolation is an alias of this type, and its
// pre-existing composite literals and field accesses must keep
// compiling.
type Diagnostic struct {
	// Code identifies the check; empty for legacy free-form diagnostics
	// constructed through the back-compat aliases.
	Code     Code
	Severity Severity
	Fn       string
	Block    string // empty for module- or function-level diagnostics
	// Instr is the 1-based index of the instruction within Block the
	// diagnostic anchors to; 0 when it names a whole block or coarser.
	Instr int
	Msg   string
	// Fix is an optional human-readable fix-it hint.
	Fix string
	// Edits, when non-empty, is the machine-applicable form of Fix: the
	// exact barrier-op insertions/deletions that resolve the finding.
	// internal/repair applies them; the SARIF emitter renders them as
	// fixes[].artifactChanges. A diagnostic without edits (SR1003's lost
	// wait, for example) is not machine-repairable.
	Edits []Edit
}

// String renders "CODE: fn.block: msg" with the empty parts elided —
// compatible with the historical lint and SafetyViolation formats,
// which tests match by substring.
func (d Diagnostic) String() string {
	prefix := ""
	if d.Code != "" {
		prefix = string(d.Code) + ": "
	}
	loc := d.Fn
	if d.Block != "" {
		if loc != "" {
			loc += "."
		}
		loc += d.Block
	}
	if loc == "" {
		return prefix + d.Msg
	}
	return fmt.Sprintf("%s%s: %s", prefix, loc, d.Msg)
}

// Filter returns the diagnostics of severity at least min, in order.
func Filter(diags []Diagnostic, min Severity) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Severity >= min {
			out = append(out, d)
		}
	}
	return out
}

// Dedupe drops diagnostics identical in (Code, Fn, Block, Instr, Msg),
// keeping the first occurrence and the input order. Module-granularity
// checks over an interprocedural call graph can reach the same defect
// via several call paths; the report must state each defect once.
func Dedupe(diags []Diagnostic) []Diagnostic {
	if len(diags) < 2 {
		return diags
	}
	type key struct {
		code      Code
		fn, block string
		instr     int
		msg       string
	}
	seen := make(map[key]bool, len(diags))
	out := diags[:0]
	for _, d := range diags {
		k := key{d.Code, d.Fn, d.Block, d.Instr, d.Msg}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, d)
	}
	return out
}

// EditKind is the vocabulary of machine-applicable edits: the repair
// engine only ever inserts a barrier operation, deletes one, or rewrites
// one's barrier operand — the three moves GPURepair-style barrier repair
// needs.
type EditKind int

const (
	// EditInsert inserts a fresh barrier instruction (Op on barrier Bar)
	// at Index within Fn.Block, pushing the instruction currently at
	// Index down. Index must stay at or before the terminator.
	EditInsert EditKind = iota
	// EditDelete removes the instruction at Index (never a terminator).
	EditDelete
	// EditReplaceBar rewrites the barrier operand of the instruction at
	// Index to Bar, leaving the opcode in place.
	EditReplaceBar
)

func (k EditKind) String() string {
	switch k {
	case EditInsert:
		return "insert"
	case EditDelete:
		return "delete"
	case EditReplaceBar:
		return "replace-bar"
	}
	return fmt.Sprintf("editkind(%d)", int(k))
}

// Edit is one machine-applicable fix: a single barrier-op mutation at an
// exact instruction position. Unlike Diagnostic.Instr (1-based, 0 =
// coarser), Index is the plain 0-based slice index the mutation applies
// at, so appliers need no off-by-one bookkeeping.
type Edit struct {
	Kind      EditKind
	Fn, Block string
	Index     int
	// Op is the opcode to insert (EditInsert only): OpJoin, OpWait,
	// OpWaitN or OpCancel.
	Op ir.Opcode
	// Bar is the barrier operand: the inserted instruction's barrier
	// (EditInsert) or the replacement operand (EditReplaceBar).
	Bar int
	// N is the inserted OpWaitN threshold (0 otherwise).
	N int64
}

// Instr materializes the instruction an EditInsert places.
func (e Edit) Instr() ir.Instr {
	return ir.Instr{Op: e.Op, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Bar: e.Bar, Imm: e.N}
}

func (e Edit) String() string {
	loc := fmt.Sprintf("%s.%s[%d]", e.Fn, e.Block, e.Index)
	switch e.Kind {
	case EditInsert:
		in := e.Instr()
		return fmt.Sprintf("insert %q at %s", ir.FormatInstr(&in, nil), loc)
	case EditDelete:
		return fmt.Sprintf("delete instruction at %s", loc)
	case EditReplaceBar:
		return fmt.Sprintf("replace barrier operand at %s with b%d", loc, e.Bar)
	}
	return fmt.Sprintf("%s at %s", e.Kind, loc)
}
