package core

import (
	"errors"
	"fmt"
	"strings"

	"specrecon/internal/analyze"
	"specrecon/internal/ir"
	"specrecon/internal/repair"
)

// The static barrier-safety verifier. Speculative reconvergence is not
// safe by construction: a JoinBarrier that some path never releases
// leaks warp participation, and two live ranges overlapping
// non-inclusively deadlock the warp (§4.3). The verifier proves four
// properties of the compiled module and fails compilation when any is
// violated; CompileSafe turns that failure into a fall-back to the PDOM
// baseline so one pathological kernel degrades instead of killing a run.
//
// The checks are the error-severity layer of the static analyzer in
// internal/analyze, run with barrier provenance (BarrierKind) supplied
// by the pass manager:
//
//  1. Pairing (SR1001/SR1003): a waited barrier must be joined
//     somewhere, and a compiler-minted barrier that is joined must also
//     be waited somewhere (join+cancel-only synchronization does
//     nothing and means a wait was lost).
//  2. Joined-at-exit (SR1002): at every thread-exiting terminator, the
//     forward joined-barrier analysis (equation 1, cancels counted as
//     clears, calls clearing the barriers their callee's entry waits
//     on) must be empty — otherwise some path lets a lane exit while
//     participating, i.e. a release is missing on that exit path.
//  3. Rejoin discipline (SR1004): a speculative barrier's wait on a
//     looping path must be immediately followed by its rejoin
//     (Figure 4(d)); without it, later iterations silently stop
//     converging.
//  4. Residual conflicts (SR1005): re-running the §4.3 conflict
//     analysis after deconfliction must find nothing.
//
// The verifier runs as the read-only "barrier-safety" pass, placed
// before register allocation so violations are reported in virtual
// barrier ids with their kinds. The analyzer's full report — warnings,
// notes and static efficiency estimates included — is stored on the
// Compilation as Diagnostics/StaticEff.

// SafetyViolation is one property violation found by the verifier — the
// unified diagnostic type of internal/analyze, always error severity
// when produced here.
type SafetyViolation = analyze.Diagnostic

// SafetyError aggregates every violation the verifier found; it
// supports errors.As through the pass manager's wrapping.
type SafetyError struct {
	Violations []SafetyViolation
}

func (e *SafetyError) Error() string {
	msgs := make([]string, len(e.Violations))
	for i, v := range e.Violations {
		msgs[i] = v.String()
	}
	return fmt.Sprintf("barrier safety: %d violation(s): %s", len(e.Violations), strings.Join(msgs, "; "))
}

func init() {
	registerSimplePass("barrier-safety",
		"verify barrier placement: pairing, releases on all exit paths, rejoin discipline, residual conflicts (read-only)",
		ReadsOnly,
		func(c *PassContext) error {
			return c.verifyBarrierSafety()
		})
}

// barrierClassOf returns the analyzer ClassOf callback for the barriers
// minted so far in this compilation.
func (c *PassContext) barrierClassOf() func(int) analyze.BarrierClass {
	return func(bar int) analyze.BarrierClass {
		if bar >= 0 && bar < len(c.barriers) {
			return c.barriers[bar].Kind
		}
		return analyze.ClassUser
	}
}

// analyzed runs the static analyzer over the compile's analysis record
// and keeps its full report on the result: the "barrier-safety" and
// "analyze" passes are its error layer and its whole.
func (c *PassContext) analyzed(opts analyze.Options) *analyze.Report {
	rep := c.facts.Analyze(opts)
	c.result.Diagnostics, c.result.StaticEff = rep.Diags, rep.Efficiency
	return rep
}

// verifyBarrierSafety runs the static analyzer with barrier provenance
// and returns a *SafetyError when any error-severity diagnostic is
// found, remarking each one. The full report is kept on the result.
func (c *PassContext) verifyBarrierSafety() error {
	vs := c.analyzed(analyze.Options{ClassOf: c.barrierClassOf()}).Errors()
	if len(vs) == 0 {
		return nil
	}
	for _, v := range vs {
		c.Remarkf(v.Fn, v.Block, "%s", v.Msg)
	}
	return &SafetyError{Violations: vs}
}

// SafePipelineFor derives the default pipeline like PipelineFor but with
// the barrier-safety verifier inserted before register allocation.
func SafePipelineFor(opts Options) *Pipeline {
	return pipelineWith(opts, "barrier-safety", "").own()
}

// RepairedRemark records that CompileSafe's repair stage rescued a
// rejected speculative build: the verifier's original rejection plus
// the repair engine's fixpoint report.
type RepairedRemark struct {
	// Reject is the error the plain speculative build failed with
	// (typically a *SafetyError through the pass manager's wrapping).
	Reject error
	// Report is the repair fixpoint report for the build that passed
	// re-verification.
	Report *repair.Report
}

// SafeCompilation is CompileSafe's result: the verified speculative
// build (possibly after automated repair), or the PDOM baseline it fell
// back to.
type SafeCompilation struct {
	*Compilation
	// FellBack reports that the requested build was rejected — and not
	// repairable — so the Compilation is the PDOM baseline instead.
	FellBack bool
	// FallbackErr is the error that triggered the fallback (nil when
	// FellBack is false). Typically a *SafetyError through the pass
	// manager's wrapping.
	FallbackErr error
	// Repaired is non-nil when the build was initially rejected, the
	// repair engine fixed it, and re-verification passed: the
	// Compilation is the repaired speculative build, not a fallback.
	Repaired *RepairedRemark
}

// CompileSafe compiles m under opts with the static barrier-safety
// verifier in the pipeline. A build the verifier rejects gets a second
// chance through the automated-repair pipeline (the "repair" pass to
// fixpoint, then re-verification); only when that also fails does it
// degrade to the PDOM baseline build (predictions and faults stripped),
// recording the reason as a structured "failsafe" remark, so a harness
// run over many kernels survives one pathological input. (The verdict
// before repair is CompilePipeline(m, opts, SafePipelineFor(opts))
// returning the *SafetyError.) The error return is non-nil only when
// the baseline itself cannot be built, i.e. the input module is unusable
// regardless of speculation.
func CompileSafe(m *ir.Module, opts Options) (*SafeCompilation, error) {
	comp, err := CompilePipeline(m, opts, pipelineWith(opts, "barrier-safety", ""))
	if err == nil {
		return &SafeCompilation{Compilation: comp}, nil
	}

	// Repair-then-reverify: only worth attempting when the rejection is
	// the verifier's (anything else — a fault that broke the module, a
	// prediction that does not lower — has no diagnostics to drive it).
	var se *SafetyError
	if errors.As(err, &se) {
		rcomp, rerr := CompilePipeline(m, opts, pipelineWith(opts, "repair", "barrier-safety"))
		if rerr == nil && rcomp.RepairReport != nil && len(rcomp.RepairReport.Edits) > 0 {
			return &SafeCompilation{
				Compilation: rcomp,
				Repaired:    &RepairedRemark{Reject: err, Report: rcomp.RepairReport},
			}, nil
		}
	}

	fb := Options{
		InsertPDOM:        true,
		ThresholdOverride: -1,
		SkipAllocation:    opts.SkipAllocation,
		AssumeVerified:    opts.AssumeVerified,
	}
	base, berr := CompilePipeline(m, fb, pipelineWith(fb, "barrier-safety", ""))
	if berr != nil {
		return nil, fmt.Errorf("core: speculative build failed (%v); baseline fallback also failed: %w", err, berr)
	}
	base.Remarks = append(base.Remarks, Remark{
		Pass: "failsafe",
		Msg:  fmt.Sprintf("speculative build rejected, fell back to PDOM baseline: %v", err),
	})
	return &SafeCompilation{Compilation: base, FellBack: true, FallbackErr: err}, nil
}
