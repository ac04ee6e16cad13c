// Package diffcheck is the differential checker at the heart of the
// robustness layer: it takes any kernel — hand-written, corpus-generated
// or mutated — compiles it under both the PDOM baseline and the
// speculative-reconvergence pipeline, runs both builds in the simulator
// under an issue budget with strict barrier accounting, and
// asserts that the two terminate with equivalent architectural state.
// The baseline side is its own step (NewBaseline), so a campaign that
// checks one kernel under many speculative options launches its
// baseline once; a kernel with no prediction has no speculative build of
// its own (the transform acts only at predictions), so its check
// compiles one build and, on the baseline launch, simulates it once.
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

// Options configures one differential check. NewBaseline reads
// AutoAnnotate, MaxIssues, Policy, Verify and WallBudget; Versus reads
// the rest, and Verify.
type Options struct {
	// MaxIssues budgets each simulator run (default 1<<24 issues). A
	// speculative build that exceeds the budget the baseline met is a
	// livelock finding.
	MaxIssues int64
	// ThresholdOverride replaces every prediction's soft-barrier
	// threshold in the speculative build: N > 0 waits for N threads, a
	// negative value makes each speculative wait the hard barrier (core's
	// 0), and the zero value keeps each prediction's own (core's -1).
	ThresholdOverride int
	// Deconflict selects the §4.3 strategy for the speculative build.
	Deconflict core.DeconflictMode
	// Verify adds the static barrier-safety verifier to the speculative
	// pipeline; violations surface as StageVerify findings before any
	// simulation runs. The baseline reads it too: a verifying baseline
	// is the verifier's build of the PDOM pipeline, which is the
	// verifying speculative build of a module with no prediction.
	Verify bool
	// Repair routes the speculative build through the automated-repair
	// pipeline, which verifies whether or not Verify is set: the
	// analyzer's machine edits are applied to fixpoint before
	// re-verification. The baseline side is never repaired — it stays
	// the un-repaired PDOM reference, so a passing check is the proof
	// obligation that a repair preserved the kernel's results.
	Repair bool
	// AutoAnnotate runs the §4.5 detector when the module carries no
	// predictions (corpus kernels arrive bare), annotating a clone made
	// only when a candidate applies; the input is only read.
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
}

func (o Options) withDefaults() Options {
	if o.MaxIssues == 0 {
		o.MaxIssues = 1 << 24
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
	// SpecMetrics is BaseMetrics, sharing its storage, when the launch
	// was reused.
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

// Baseline is the reference side of a check: the kernel's PDOM build,
// launched once. Any number of speculative builds of the kernel are
// compared with it (Versus); it is only read once made. A speculative
// build that is the baseline build by rule (see Versus) is not compiled
// again: it is this one, so it also shares this launch.
type Baseline struct {
	// mod is what both sides compile: the kernel's module, or the clone
	// AutoAnnotate annotated.
	mod       *ir.Module
	annotated bool
	comp      *core.Compilation
	// verified reports that NewBaseline ran the barrier-safety verifier
	// over comp (Options.Verify); rejected is its error, and comp the
	// plain build, when it rejected the build.
	verified bool
	rejected error
	cfg      simt.Config
	run      *simt.Result
	// fail is every check's result when the baseline build (comp nil)
	// or its run (run nil) failed.
	fail Result
	// relaunch compiles and simulates the speculative build even when it
	// is the baseline build (the rebuild that export_test.go holds the
	// shared build and launch to).
	relaunch bool
}

// NewBaseline compiles and launches k's baseline under the options a
// baseline reads: AutoAnnotate, MaxIssues, Policy, Verify and
// WallBudget. Under Verify the build is the verifier's
// (SafePipelineFor(BaselineOptions())); barrier-safety only reads, so
// its module is the plain baseline's, and the plain build is compiled
// only when the verifier rejects it.
func NewBaseline(k Kernel, opts Options) Baseline {
	opts = opts.withDefaults()
	b := Baseline{mod: k.Module, verified: opts.Verify}
	if opts.AutoAnnotate && !hasPredictions(b.mod) {
		if clone, _ := core.AnnotatedClone(b.mod, core.DefaultAutoDetectOptions()); clone != nil {
			b.mod, b.annotated = clone, true
		}
	}
	var err error
	if opts.Verify {
		b.comp, b.rejected = core.CompilePipeline(b.mod, core.BaselineOptions(), core.SafePipelineFor(core.BaselineOptions()))
	}
	if b.comp == nil {
		if b.comp, err = core.Compile(b.mod, core.BaselineOptions()); err != nil {
			b.fail = Result{Stage: StageCompileBase, Err: err, Annotated: b.annotated}
			return b
		}
	}
	b.cfg = simt.Config{
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
	if b.run, err = simt.Run(b.comp.Module, b.cfg); err != nil {
		b.fail = Result{Stage: StageRunBase, Err: err, Annotated: b.annotated}
	}
	return b
}

// Check runs the differential check for k under opts: NewBaseline, then
// Versus.
func Check(k Kernel, opts Options) Result { b := NewBaseline(k, opts); return b.Versus(opts) }

// Versus checks the speculative build that opts' other fields ask for
// against b. The paper's transform acts only at predictions (§4), so
// when b's module carries none, opts injects no compile fault and asks
// for no repair, the speculative build is the baseline build: it is
// b's, decided before compiling, and under Verify it is b's verdict,
// provided b was verified too. That build on the baseline launch (no
// simulator fault, inter-warp policy or starvation monitor) shares the
// baseline's run, and the memory comparisons hold it to itself.
func (b *Baseline) Versus(opts Options) Result {
	if b.comp == nil {
		return b.fail
	}
	opts = opts.withDefaults()
	specComp, stage, err := b.comp, StageVerify, error(nil)
	if opts.Verify {
		err = b.rejected
	}
	// A threshold core rejects is still the speculative compile's error.
	if b.relaunch || opts.Verify && !b.verified || opts.Repair || !opts.Faults.Zero() ||
		opts.ThresholdOverride > ir.WarpWidth || hasPredictions(b.mod) {
		specOpts := specOptions(opts)
		switch {
		case opts.Repair:
			specComp, err = core.CompilePipeline(b.mod, specOpts, core.RepairPipelineFor(specOpts))
		case opts.Verify:
			specComp, err = core.CompilePipeline(b.mod, specOpts, core.SafePipelineFor(specOpts))
		default:
			specComp, err = core.Compile(b.mod, specOpts)
			stage = StageCompileSpec
		}
	}
	if err != nil {
		return Result{Stage: stage, Err: err, Annotated: b.annotated}
	}
	if b.run == nil {
		return b.fail
	}
	repaired := specComp.RepairReport != nil && len(specComp.RepairReport.Edits) > 0
	base, cfg := b.run, b.cfg

	// The speculative run carries the injected faults AND the scheduling
	// policy under exploration; the baseline stays the greedy reference
	// schedule.
	specCfg := cfg
	specCfg.SkipReleaseN = opts.SkipReleaseN
	specCfg.Sched = opts.Sched
	specCfg.SchedSeed = opts.SchedSeed
	specCfg.StarveLimit = opts.StarveLimit
	// A launch is a function of its module and config, so the baseline
	// build on the baseline launch has the baseline's result.
	spec := base
	if specComp != b.comp || specCfg.SkipReleaseN != cfg.SkipReleaseN || specCfg.Sched != cfg.Sched ||
		specCfg.SchedSeed != cfg.SchedSeed || specCfg.StarveLimit != cfg.StarveLimit {
		spec, err = simt.Run(specComp.Module, specCfg)
	}
	if err != nil {
		return Result{
			Stage: StageRunSpec, Err: err,
			BaseMetrics: base.Metrics, Annotated: b.annotated, Repaired: repaired,
		}
	}

	if err := SameMemory(base.Memory, spec.Memory); err != nil {
		return Result{
			Stage: StageCompare, Err: err,
			BaseMetrics: base.Metrics, SpecMetrics: spec.Metrics, Annotated: b.annotated, Repaired: repaired,
		}
	}
	if err := SameShared(base.Shared, spec.Shared); err != nil {
		return Result{
			Stage: StageCompare, Err: err,
			BaseMetrics: base.Metrics, SpecMetrics: spec.Metrics, Annotated: b.annotated, Repaired: repaired,
		}
	}
	return Result{
		OK: true, Stage: StageOK,
		BaseMetrics: base.Metrics, SpecMetrics: spec.Metrics, Annotated: b.annotated, Repaired: repaired,
	}
}

// specOptions is the core spelling of the speculative build opts asks
// for.
func specOptions(opts Options) core.Options {
	thr := opts.ThresholdOverride // to core's -1 (each prediction's own) and 0 (hard)
	switch {
	case thr == 0:
		thr = -1
	case thr < 0:
		thr = 0
	}
	return core.Options{
		InsertPDOM:        true,
		ApplyPredictions:  true,
		Deconflict:        opts.Deconflict,
		ThresholdOverride: thr,
		Faults:            opts.Faults,
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
