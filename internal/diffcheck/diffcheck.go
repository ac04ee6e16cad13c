// Package diffcheck is the differential checker at the heart of the
// robustness layer: it takes any kernel — hand-written, corpus-generated
// or mutated — compiles it under both the PDOM baseline and the
// speculative-reconvergence pipeline, runs both builds in the simulator
// under an issue budget with strict barrier accounting, and
// asserts that the two terminate with equivalent architectural state.
// Speculative reconvergence must never change results (the paper's
// transform only reorders when lanes execute, §4); any divergence in
// final memory, any deadlock, budget exhaustion or leaked barrier
// participation on the speculative side is a finding.
//
// The package also hosts the fault-injection matrix (matrix.go) proving
// the detection machinery is not vacuous, and a shrinker (shrink.go)
// that minimizes failing kernels and writes standalone .sasm repros.
package diffcheck

import (
	"fmt"
	"math"
	"time"

	"specrecon/internal/ccache"
	"specrecon/internal/core"
	"specrecon/internal/ir"
	"specrecon/internal/simt"
)

// Kernel is one input to the checker: a module plus its launch
// configuration. The module's predictions drive the speculative build.
type Kernel struct {
	Name   string
	Module *ir.Module
	// Entry is the kernel function; empty selects the module's first.
	Entry   string
	Threads int
	Memory  []uint64
	Seed    uint64
	// Grid, when positive, checks the kernel as a grid launch of Grid
	// CTAs of CTASize threads over SMs streaming multiprocessors
	// (simt.Config semantics; Threads is ignored). Workers shards the
	// SMs — results are identical for any worker count.
	Grid    int
	CTASize int
	SMs     int
	Workers int
}

// Options configures one differential check.
type Options struct {
	// MaxIssues budgets each simulator run (default 1<<24 issues). A
	// speculative build that exceeds the budget the baseline met is a
	// livelock finding.
	MaxIssues int64
	// ThresholdOverride forwards to core.Options (default -1: keep each
	// prediction's own soft-barrier threshold).
	ThresholdOverride int
	// Deconflict selects the §4.3 strategy for the speculative build.
	Deconflict core.DeconflictMode
	// Verify adds the static barrier-safety verifier to the speculative
	// pipeline; violations surface as StageVerify findings before any
	// simulation runs.
	Verify bool
	// Repair (with Verify) routes the speculative build through the
	// automated-repair pipeline: the analyzer's machine edits are
	// applied to fixpoint before re-verification. The baseline side is
	// never repaired — it stays the un-repaired PDOM reference, so a
	// passing check is the proof obligation that a repair preserved the
	// kernel's results.
	Repair bool
	// AutoAnnotate runs the §4.5 detector when the module carries no
	// predictions (corpus kernels arrive bare), annotating a clone.
	AutoAnnotate bool
	// Faults injects compile-layer barrier perturbations into the
	// speculative build (the baseline is never faulted — it is the
	// reference).
	Faults core.FaultPlan
	// SkipReleaseN injects the simulator-layer fault into the
	// speculative run: the Nth barrier-cohort release is lost.
	SkipReleaseN int64
	// Policy selects the group-pick policy for both runs (both builds
	// must agree under any pick rule; the default is the reference
	// maxgroup).
	Policy simt.Policy
	// Sched applies an inter-warp scheduling policy to the SPECULATIVE
	// run only — the baseline stays on the reference greedy-converge
	// scheduler, so a check under a non-greedy Sched is simultaneously
	// a speculation check and a schedule-dependence check: any
	// mismatch, deadlock or starvation indicts the kernel's reliance on
	// a progress guarantee (or one of the engines — see the analyzer
	// cross-check of cmd/diffhunt's sched axis). SchedSeed seeds
	// simt.SchedRandom.
	Sched     simt.SchedPolicy
	SchedSeed uint64
	// StarveLimit arms the starvation monitor on the policy-scheduled
	// speculative run (simt.Config.StarveLimit semantics).
	StarveLimit int64
	// WallBudget bounds each run's wall-clock time beside MaxIssues
	// (simt.Config.WallBudget semantics); it applies to both runs so a
	// pathological kernel cannot hang a campaign worker.
	WallBudget time.Duration
	// Cache, when non-nil, memoizes the baseline and speculative
	// compilations: a campaign re-checking one kernel under many
	// thresholds or fault plans compiles each distinct build once.
	// AutoAnnotate results are keyed by the annotated module's content,
	// so cached and fresh campaigns report identically.
	Cache *ccache.Cache
}

func (o Options) withDefaults() Options {
	if o.MaxIssues == 0 {
		o.MaxIssues = 1 << 24
	}
	if o.ThresholdOverride == 0 {
		o.ThresholdOverride = -1
	}
	return o
}

// Stage identifies where a check stopped.
type Stage string

const (
	// StageCompileBase: the baseline build failed — the kernel itself is
	// unusable, not a speculation bug (campaigns count these as skips).
	StageCompileBase Stage = "compile-base"
	// StageRunBase: the baseline run failed; same interpretation.
	StageRunBase Stage = "run-base"
	// StageVerify: the static barrier-safety verifier rejected the
	// speculative build (Options.Verify only).
	StageVerify Stage = "verify"
	// StageCompileSpec: the speculative pipeline itself errored.
	StageCompileSpec Stage = "compile-spec"
	// StageRunSpec: the speculative run deadlocked, leaked participation
	// or exhausted its budget.
	StageRunSpec Stage = "run-spec"
	// StageCompare: both ran to completion but final memory differs.
	StageCompare Stage = "compare"
	// StageOK: no finding.
	StageOK Stage = "ok"
)

// BaselineFailure reports whether the stage blames the input kernel
// rather than the speculative transform.
func (s Stage) BaselineFailure() bool {
	return s == StageCompileBase || s == StageRunBase
}

// Result is the outcome of one differential check.
type Result struct {
	// OK is true when both builds terminated with equivalent state.
	OK    bool
	Stage Stage
	Err   error
	// BaseMetrics/SpecMetrics are populated for the runs that completed.
	BaseMetrics simt.Metrics
	SpecMetrics simt.Metrics
	// Annotated reports whether AutoAnnotate attached predictions.
	Annotated bool
	// Repaired reports that the repair pipeline applied edits to the
	// speculative build (Options.Repair only).
	Repaired bool
}

func (r Result) String() string {
	if r.OK {
		return "ok"
	}
	return fmt.Sprintf("%s: %v", r.Stage, r.Err)
}

// Check runs the differential check for k under opts.
func Check(k Kernel, opts Options) Result {
	opts = opts.withDefaults()

	mod := k.Module
	annotated := false
	if opts.AutoAnnotate && !hasPredictions(mod) {
		clone := mod.Clone()
		if applied := core.AutoAnnotate(clone, core.DefaultAutoDetectOptions()); len(applied) > 0 {
			mod = clone
			annotated = true
		}
	}

	baseComp, err := opts.Cache.Compile(mod, core.BaselineOptions())
	if err != nil {
		return Result{Stage: StageCompileBase, Err: err, Annotated: annotated}
	}

	specOpts := core.Options{
		InsertPDOM:        true,
		ApplyPredictions:  true,
		Deconflict:        opts.Deconflict,
		ThresholdOverride: opts.ThresholdOverride,
		Faults:            opts.Faults,
	}
	repaired := false
	var specComp *core.Compilation
	if opts.Verify && opts.Repair {
		specComp, err = opts.Cache.CompilePipeline(mod, specOpts, core.RepairPipelineFor(specOpts))
		if err != nil {
			return Result{Stage: StageVerify, Err: err, Annotated: annotated}
		}
		repaired = specComp.RepairReport != nil && len(specComp.RepairReport.Edits) > 0
	} else if opts.Verify {
		specComp, err = opts.Cache.CompilePipeline(mod, specOpts, core.SafePipelineFor(specOpts))
		if err != nil {
			return Result{Stage: StageVerify, Err: err, Annotated: annotated}
		}
	} else {
		specComp, err = opts.Cache.Compile(mod, specOpts)
		if err != nil {
			return Result{Stage: StageCompileSpec, Err: err, Annotated: annotated}
		}
	}

	cfg := simt.Config{
		Kernel:     k.Entry,
		Threads:    k.Threads,
		Seed:       k.Seed,
		Memory:     k.Memory,
		Strict:     true,
		MaxIssues:  opts.MaxIssues,
		Grid:       k.Grid,
		CTASize:    k.CTASize,
		SMs:        k.SMs,
		Workers:    k.Workers,
		Policy:     opts.Policy,
		WallBudget: opts.WallBudget,
	}
	base, err := simt.Run(baseComp.Module, cfg)
	if err != nil {
		return Result{Stage: StageRunBase, Err: err, Annotated: annotated}
	}

	// The speculative run carries the injected faults AND the scheduling
	// policy under exploration; the baseline above stays the greedy
	// reference schedule.
	specCfg := cfg
	specCfg.SkipReleaseN = opts.SkipReleaseN
	specCfg.Sched = opts.Sched
	specCfg.SchedSeed = opts.SchedSeed
	specCfg.StarveLimit = opts.StarveLimit
	spec, err := simt.Run(specComp.Module, specCfg)
	if err != nil {
		return Result{
			Stage: StageRunSpec, Err: err,
			BaseMetrics: base.Metrics, Annotated: annotated, Repaired: repaired,
		}
	}

	if err := SameMemory(base.Memory, spec.Memory); err != nil {
		return Result{
			Stage: StageCompare, Err: err,
			BaseMetrics: base.Metrics, SpecMetrics: spec.Metrics, Annotated: annotated, Repaired: repaired,
		}
	}
	if err := SameShared(base.Shared, spec.Shared); err != nil {
		return Result{
			Stage: StageCompare, Err: err,
			BaseMetrics: base.Metrics, SpecMetrics: spec.Metrics, Annotated: annotated, Repaired: repaired,
		}
	}
	return Result{
		OK: true, Stage: StageOK,
		BaseMetrics: base.Metrics, SpecMetrics: spec.Metrics, Annotated: annotated, Repaired: repaired,
	}
}

func hasPredictions(m *ir.Module) bool {
	for _, f := range m.Funcs {
		if len(f.Predictions) > 0 {
			return true
		}
	}
	return false
}

// SameMemory checks that two final memory images agree. Words that
// differ bitwise must still agree as floats to within a tiny relative
// error: kernels using floating-point atomics produce order-dependent
// rounding, and convergence barriers legitimately reorder lanes.
func SameMemory(a, b []uint64) error {
	if len(a) != len(b) {
		return fmt.Errorf("memory sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		fa, fb := math.Float64frombits(a[i]), math.Float64frombits(b[i])
		if closeEnough(fa, fb) {
			continue
		}
		return fmt.Errorf("memory word %d differs: %#x (%g) vs %#x (%g)", i, a[i], fa, b[i], fb)
	}
	return nil
}

// SameShared compares the per-CTA final shared-memory images of two
// runs under the same tolerance as SameMemory. Both speculative
// reconvergence and SM sharding must leave every CTA's shared segment
// untouched relative to the baseline.
func SameShared(a, b [][]uint64) error {
	if len(a) != len(b) {
		return fmt.Errorf("shared segment counts differ: %d vs %d CTAs", len(a), len(b))
	}
	for c := range a {
		if err := SameMemory(a[c], b[c]); err != nil {
			return fmt.Errorf("cta %d shared: %w", c, err)
		}
	}
	return nil
}

func closeEnough(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	// Only values that look like genuine floats get tolerance: small
	// integers reinterpret as denormals, and treating those as "close"
	// would mask real integer mismatches (e.g. counters 2 vs 3).
	if math.Abs(a) < 1e-300 || math.Abs(b) < 1e-300 {
		return false
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}
