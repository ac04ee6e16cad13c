// Package core implements the paper's contribution: compiler-assisted
// speculative reconvergence (Damani et al., CGO 2020, section 4).
//
// The pipeline mirrors the paper's production-compiler implementation:
//
//  1. Divergence analysis finds potentially divergent branches.
//  2. A baseline pass inserts the standard post-dominator (PDOM)
//     convergence barriers the GPU compiler would emit: JoinBarrier at
//     every divergent branch, WaitBarrier at the branch's immediate
//     post-dominator.
//  3. Prediction lowering (section 4.2) turns each user annotation —
//     Predict(label) plus a reconvergence label, or a callee name for the
//     interprocedural variant (section 4.4) — into JoinBarrier /
//     WaitBarrier / RejoinBarrier / CancelBarrier placements, plus an
//     orthogonal barrier pair collecting all threads at the region exit.
//     CancelBarrier placement is driven by the joined-barrier dataflow
//     analysis (equation 1) at region exits; RejoinBarrier is placed
//     after the cleared wait. Soft barriers (section 4.6) lower to the
//     ISA's thresholded wait.
//  4. Conflict analysis (section 4.3) computes joined live intervals for
//     every barrier and flags pairs whose intervals overlap
//     non-inclusively; deconfliction is either static (delete the
//     conflicting PDOM barrier's operations) or dynamic (insert
//     CancelBarrier of the conflicting barrier before the new wait).
//  5. Barrier register allocation colors virtual barriers onto the
//     warp's 16 physical barrier registers by interference of their
//     joined ranges.
//
// The automatic detector of section 4.5 lives in autodetect.go.
package core

import (
	"fmt"
	"time"

	"specrecon/internal/analyze"
	"specrecon/internal/ir"
	"specrecon/internal/repair"
)

// DeconflictMode selects the section-4.3 strategy.
type DeconflictMode int

const (
	// DeconflictDynamic inserts CancelBarrier of each conflicting
	// barrier before the speculative wait (Figure 5(c)); the paper's
	// evaluation uses this mode.
	DeconflictDynamic DeconflictMode = iota
	// DeconflictStatic deletes the conflicting PDOM barrier's
	// operations (Figure 5(b)).
	DeconflictStatic
	// DeconflictNone performs no deconfliction; useful only for tests
	// demonstrating why deconfliction is necessary (deadlocks).
	DeconflictNone
)

func (d DeconflictMode) String() string {
	switch d {
	case DeconflictDynamic:
		return "dynamic"
	case DeconflictStatic:
		return "static"
	case DeconflictNone:
		return "none"
	}
	return fmt.Sprintf("deconflict(%d)", int(d))
}

// Options configures Compile.
type Options struct {
	// InsertPDOM inserts the baseline post-dominator barriers. On for
	// both baseline and optimized builds (the paper's transform runs on
	// top of the standard compiler output).
	InsertPDOM bool
	// ApplyPredictions lowers the function's Prediction annotations.
	ApplyPredictions bool
	// Deconflict selects the strategy when ApplyPredictions is set.
	Deconflict DeconflictMode
	// ThresholdOverride, when >= 0, replaces every prediction's soft
	// barrier threshold (0 means a hard wait-for-all barrier). Used by
	// the Figure 9 threshold sweeps. When < 0 the per-prediction
	// thresholds apply.
	ThresholdOverride int
	// AssumeVerified skips the input VerifyModule check. Sweeps that
	// compile one already-verified module many times (the Figure 9
	// threshold sweep) set it to avoid paying verification per variant;
	// the output module is still verified after the pipeline runs.
	AssumeVerified bool
	// Faults deterministically perturbs barrier placement for robustness
	// testing (see fault.go). The zero value injects nothing.
	Faults FaultPlan
}

// BaselineOptions compiles with standard PDOM synchronization only.
func BaselineOptions() Options {
	return Options{InsertPDOM: true, ThresholdOverride: -1}
}

// SpecReconOptions compiles with speculative reconvergence applied on top
// of PDOM synchronization, using dynamic deconfliction as in the paper's
// evaluation.
func SpecReconOptions() Options {
	return Options{
		InsertPDOM:        true,
		ApplyPredictions:  true,
		Deconflict:        DeconflictDynamic,
		ThresholdOverride: -1,
	}
}

// BarrierKind records why a barrier exists, for deconfliction decisions
// and diagnostics. It is the analyzer's BarrierClass: the class-gated
// checks read the provenance the passes record, unconverted.
type BarrierKind = analyze.BarrierClass

const (
	// KindUser marks barriers already present in the input IR.
	KindUser = analyze.ClassUser
	// KindPDOM marks baseline post-dominator barriers.
	KindPDOM = analyze.ClassPDOM
	// KindSpec marks speculative reconvergence barriers (the paper's b0).
	KindSpec = analyze.ClassSpec
	// KindExit marks the orthogonal region-exit barriers (the paper's b1).
	KindExit = analyze.ClassExit
	// KindSpecCall marks interprocedural speculative barriers.
	KindSpecCall = analyze.ClassSpecCall
)

// BarrierInfo describes one virtual barrier created by the pipeline.
type BarrierInfo struct {
	ID   int
	Kind BarrierKind
	// Fn is the function the barrier was created for; interprocedural
	// barriers also appear in the predicted callee.
	Fn *ir.Function
	// Callee is set for interprocedural barriers.
	Callee string
}

// Compilation is the result of Compile: the transformed module plus
// everything the passes learned, for reporting and tests.
type Compilation struct {
	Module   *ir.Module
	Options  Options
	Barriers []BarrierInfo
	// Conflicts lists the conflicting barrier pairs found per function.
	Conflicts []ConflictPair
	// BarrierAssignment maps virtual barrier id -> physical register.
	BarrierAssignment map[int]int
	// Stats summarizes what the pipeline emitted.
	Stats CompileStats
	// Pipeline is the spec string of the pass sequence that ran.
	Pipeline string
	// PassStats holds per-pass instrumentation, in execution order.
	PassStats []PassStat
	// Remarks is the optimization-remarks stream every pass wrote to.
	Remarks []Remark
	// Diagnostics is the static analyzer's report over the compiled
	// module: the full report — errors, warnings and notes — from the
	// "analyze" pass and from CompileSafe, the errors alone from any
	// other run of "barrier-safety" (nil when neither ran).
	Diagnostics []analyze.Diagnostic
	// RepairReport is the automated-repair fixpoint report, populated by
	// the "repair" pass (nil when it did not run).
	RepairReport *repair.Report
	// StaticEff maps each kernel to its static SIMT-efficiency estimate,
	// populated alongside a full report.
	StaticEff map[string]float64
	// CompileTime is the total wall time of the compilation, including
	// verification and cloning around the pass pipeline.
	CompileTime time.Duration
}

// CompileStats counts the synchronization the pipeline inserted — the
// static code-size cost of the transform, which section 4.3 weighs when
// comparing deconfliction strategies.
type CompileStats struct {
	Joins     int // JoinBarrier/RejoinBarrier operations emitted
	Waits     int // hard WaitBarrier operations
	SoftWaits int // thresholded waits
	Cancels   int // CancelBarrier operations
	// InputInstrs/OutputInstrs are total module instruction counts
	// before and after the pipeline.
	InputInstrs  int
	OutputInstrs int
}

// gatherStats fills Stats from the compiled module.
func gatherStats(mod *ir.Module, inputInstrs int) CompileStats {
	st := CompileStats{InputInstrs: inputInstrs}
	for _, f := range mod.Funcs {
		st.OutputInstrs += f.NumInstrs()
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				switch b.Instrs[i].Op {
				case ir.OpJoin:
					st.Joins++
				case ir.OpWait:
					st.Waits++
				case ir.OpWaitN:
					st.SoftWaits++
				case ir.OpCancel:
					st.Cancels++
				}
			}
		}
	}
	return st
}

// ConflictPair records one section-4.3 conflict.
type ConflictPair struct {
	Fn   *ir.Function
	A, B int // virtual barrier ids; A is the spec/exit barrier
}

// Compile clones m, runs the pass pipeline derived from opts over it,
// and returns the transformed module with its compilation report. The
// input module is not modified.
func Compile(m *ir.Module, opts Options) (*Compilation, error) {
	return CompilePipeline(m, opts, pipelineWith(opts, "", ""))
}

// CompilePipeline clones m and runs an explicit pass pipeline over it.
// opts still supplies pass-independent knobs (soft-barrier threshold
// override, deconfliction default); pipe decides which passes run and in
// what order. The manager verifies the input module before the first
// pass and the output module after the last one regardless of
// pipe.VerifyEach.
func CompilePipeline(m *ir.Module, opts Options, pipe *Pipeline) (*Compilation, error) {
	return compilePipeline(m, opts, pipe, false)
}

// compilePipeline is CompilePipeline; fullReport has the barrier-safety
// pass keep the analyzer's full report instead of its error view.
func compilePipeline(m *ir.Module, opts Options, pipe *Pipeline, fullReport bool) (*Compilation, error) {
	facts := analyze.NewFacts(nil)
	defer facts.Retire()
	return compileIn(facts, m, opts, pipe, fullReport)
}

// compileIn is compilePipeline with facts, reset for the clone, as its
// analysis record.
func compileIn(facts *analyze.Facts, m *ir.Module, opts Options, pipe *Pipeline, fullReport bool) (*Compilation, error) {
	start := time.Now()
	if t := opts.ThresholdOverride; t < -1 || t > ir.WarpWidth {
		return nil, fmt.Errorf("core: options: ThresholdOverride %d outside [-1,%d]", t, ir.WarpWidth)
	}
	if !opts.AssumeVerified {
		if err := ir.VerifyModule(m); err != nil {
			return nil, fmt.Errorf("core: input module invalid: %w", err)
		}
	}
	mod := m.Clone()
	facts.Reset(mod)
	c := &PassContext{Mod: mod, Opts: opts, facts: facts, fullReport: fullReport}
	c.result = &Compilation{Module: mod, Options: opts, Pipeline: pipe.Spec()}

	// Virtual barrier ids are module-wide unique so that interprocedural
	// barriers can span functions.
	for _, f := range mod.Funcs {
		if n := f.MaxBarrier() + 1; n > c.nextBar {
			c.nextBar = n
		}
	}
	for b := 0; b < c.nextBar; b++ {
		c.barriers = append(c.barriers, BarrierInfo{ID: b, Kind: KindUser})
	}

	if err := pipe.run(c); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if c.result.BarrierAssignment == nil { // no alloc pass, or no barrier to color
		c.result.BarrierAssignment = map[int]int{}
	}

	if err := ir.VerifyModule(mod); err != nil {
		return nil, fmt.Errorf("core: output module invalid (compiler bug): %w", err)
	}
	c.result.Barriers = c.barriers
	inputInstrs := 0
	for _, f := range m.Funcs {
		inputInstrs += f.NumInstrs()
	}
	c.result.Stats = gatherStats(mod, inputInstrs)
	c.result.CompileTime = time.Since(start)
	return c.result, nil
}

// newBarrier mints a fresh virtual barrier.
func (c *PassContext) newBarrier(kind BarrierKind, f *ir.Function, callee string) int {
	id := c.nextBar
	c.nextBar++
	c.barriers = append(c.barriers, BarrierInfo{ID: id, Kind: kind, Fn: f, Callee: callee})
	return id
}

// insertPDOM places the baseline barriers: for every divergent
// conditional branch, JoinBarrier in the branch block and WaitBarrier at
// the branch's immediate post-dominator ("GPU compilers currently attempt
// reconvergence at the post-dominator", paper section 1).
func (c *PassContext) insertPDOM(f *ir.Function) {
	info, div := c.facts.CFG(f), c.facts.Divergence(f)

	type placement struct {
		branch *ir.Block
		pdom   *ir.Block
		bar    int
	}
	var places []placement
	for _, b := range info.RPO {
		if !div.DivergentBranch[b.Index] {
			continue
		}
		pd := info.Ipdom(b)
		if pd == nil {
			// The branch reconverges only at thread exit; lanes leave
			// independently and the implicit exit cleanup applies.
			continue
		}
		places = append(places, placement{branch: b, pdom: pd, bar: c.newBarrier(KindPDOM, f, "")})
	}
	for _, p := range places {
		c.Remarkf(f.Name, p.branch.Name, "barrier b%d: join at divergent branch, wait at post-dominator %q", p.bar, p.pdom.Name)
	}
	// Insert joins, then waits. Waits are inserted at block tops in RPO
	// order of their branches, so inner (later-discovered) barriers end
	// up above outer ones and are released first.
	for _, p := range places {
		p.branch.InsertBeforeTerminator(ir.Instr{Op: ir.OpJoin, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Bar: p.bar})
	}
	for _, p := range places {
		p.pdom.InsertTop(ir.Instr{Op: ir.OpWait, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Bar: p.bar})
	}
}
