// Package specrecon is the public facade of this repository: a
// reproduction of "Speculative Reconvergence for Improved SIMT
// Efficiency" (Damani et al., CGO 2020) as a Go library.
//
// The library bundles three layers:
//
//   - a SIMT virtual ISA and compiler infrastructure (internal/ir,
//     internal/cfg, internal/dataflow, internal/divergence);
//   - the paper's contribution — prediction-guided synchronization
//     insertion, deconfliction, soft barriers, interprocedural
//     reconvergence and automatic detection (internal/core);
//   - a Volta-style warp simulator with convergence barriers and a
//     coalescing memory model (internal/simt), plus the paper's
//     benchmark suite (internal/workloads) and experiment drivers
//     (internal/harness).
//
// This package re-exports the types and entry points a downstream user
// needs: build or parse a kernel, annotate reconvergence points, compile
// baseline or speculative variants, run them, and read the metrics.
// See examples/ for complete programs.
package specrecon

import (
	"io"

	"specrecon/internal/analyze"
	"specrecon/internal/ccache"
	"specrecon/internal/core"
	"specrecon/internal/diffcheck"
	"specrecon/internal/harness"
	"specrecon/internal/ir"
	"specrecon/internal/obs"
	"specrecon/internal/repair"
	"specrecon/internal/simt"
	"specrecon/internal/workloads"
)

// Re-exported IR types. Construct kernels with NewModule/NewBuilder or
// parse the textual format with ParseModule.
type (
	Module     = ir.Module
	Function   = ir.Function
	Block      = ir.Block
	Instr      = ir.Instr
	Builder    = ir.Builder
	Prediction = ir.Prediction
)

// WarpWidth is the simulated warp width (32 lanes, as on NVIDIA parts).
const WarpWidth = ir.WarpWidth

// NewModule returns an empty module named name.
func NewModule(name string) *Module { return ir.NewModule(name) }

// NewBuilder returns a cursor-based builder over f.
func NewBuilder(f *Function) *Builder { return ir.NewBuilder(f) }

// ParseModule reads the textual assembly format (see PrintModule).
func ParseModule(src string) (*Module, error) { return ir.Parse(src) }

// PrintModule renders a module in the textual assembly format.
func PrintModule(m *Module) string { return ir.Print(m) }

// VerifyModule checks structural well-formedness.
func VerifyModule(m *Module) error { return ir.VerifyModule(m) }

// Compilation options and results (see internal/core for details).
type (
	CompileOptions = core.Options
	Compilation    = core.Compilation
	Candidate      = core.Candidate
)

// Deconfliction strategies (paper section 4.3).
const (
	DeconflictDynamic = core.DeconflictDynamic
	DeconflictStatic  = core.DeconflictStatic
	DeconflictNone    = core.DeconflictNone
)

// BaselineOptions compiles with standard post-dominator synchronization
// only — what a stock GPU compiler emits.
func BaselineOptions() CompileOptions { return core.BaselineOptions() }

// SpecReconOptions compiles with speculative reconvergence applied on
// top of the baseline, using dynamic deconfliction as in the paper's
// evaluation.
func SpecReconOptions() CompileOptions { return core.SpecReconOptions() }

// Compile clones m and runs the configured pass pipeline over it.
func Compile(m *Module, opts CompileOptions) (*Compilation, error) {
	return core.Compile(m, opts)
}

// Pass-manager types: a compilation is an ordered Pipeline of registered
// passes, each instrumented with wall time, instruction deltas and an
// optimization-remarks stream (Compilation.PassStats / .Remarks).
type (
	Pipeline = core.Pipeline
	PassStat = core.PassStat
	Remark   = core.Remark
	PassInfo = core.PassInfo
)

// ParsePipeline parses a pass spec string such as
// "pdom,predict,deconflict=dynamic,alloc" into a Pipeline.
func ParsePipeline(spec string) (*Pipeline, error) { return core.ParsePipeline(spec) }

// PipelineFor derives the default pipeline the given options would run.
func PipelineFor(opts CompileOptions) *Pipeline { return core.PipelineFor(opts) }

// CompilePipeline clones m and runs an explicit pass pipeline over it;
// set Pipeline.VerifyEach to verify the module between passes.
func CompilePipeline(m *Module, opts CompileOptions, pipe *Pipeline) (*Compilation, error) {
	return core.CompilePipeline(m, opts, pipe)
}

// RegisteredPasses lists every registered compiler pass, sorted by name.
func RegisteredPasses() []PassInfo { return core.RegisteredPasses() }

// AutoDetect scores speculative-reconvergence opportunities in m without
// modifying it (paper section 4.5).
func AutoDetect(m *Module) []Candidate {
	return core.DetectOpportunities(m, core.DefaultAutoDetectOptions())
}

// AutoAnnotate applies the automatic detector's profitable candidates as
// predictions on m, in place, and returns them.
func AutoAnnotate(m *Module) []Candidate {
	return core.AutoAnnotate(m, core.DefaultAutoDetectOptions())
}

// Simulator types. Event and EventSink form the generalized event
// stream behind the observability layer: attach a sink (a Profile, a
// TraceRecorder, or any EventSink) via RunConfig.Events.
type (
	RunConfig = simt.Config
	RunResult = simt.Result
	Metrics   = simt.Metrics
	Event     = simt.Event
	EventKind = simt.EventKind
	EventSink = simt.EventSink
	SinkFunc  = simt.SinkFunc
)

// Event kinds of the simulator event stream.
const (
	EvIssue          = simt.EvIssue
	EvBranch         = simt.EvBranch
	EvBarrierWait    = simt.EvBarrierWait
	EvBarrierRelease = simt.EvBarrierRelease
	EvCacheAccess    = simt.EvCacheAccess
	EvCall           = simt.EvCall
	EvRet            = simt.EvRet
)

// TeeSinks fans the event stream out to several sinks.
func TeeSinks(sinks ...EventSink) EventSink { return simt.TeeSinks(sinks...) }

// Observability layer (internal/obs): Profile is the nvprof-style
// per-PC profiler, TraceRecorder the Perfetto trace exporter. Both are
// EventSinks.
type (
	Profile       = obs.Profile
	ProfileStat   = obs.PCStat
	BranchStat    = obs.BranchStat
	BarrierStat   = obs.BarrierStat
	TraceRecorder = obs.TraceRecorder
)

// NewProfile builds an empty profile over the exact module that will
// run (the per-PC counter tables are indexed by the module's static
// instruction numbering).
func NewProfile(m *Module) *Profile { return obs.NewProfile(m) }

// NewTraceRecorder returns an event recorder whose WriteTrace renders
// Chrome trace-event JSON openable in ui.perfetto.dev.
func NewTraceRecorder() *TraceRecorder { return obs.NewTraceRecorder() }

// ProfileDiff compares two profiles of the same workload (typically the
// baseline and speculative builds) at block granularity.
func ProfileDiff(base, after *Profile) []obs.BlockDelta { return obs.Diff(base, after) }

// Scheduler policies for the warp scheduler.
const (
	PolicyMaxGroup   = simt.PolicyMaxGroup
	PolicyMinPC      = simt.PolicyMinPC
	PolicyRoundRobin = simt.PolicyRoundRobin
)

// Inter-warp scheduling policies (RunConfig.Sched): which resident warp
// issues next. The greedy-converge reference reproduces the paper's
// measurements; the others are legal-but-adversarial schedules for the
// stress rig (diffhunt -axis sched), with SchedRandom seeded by
// RunConfig.SchedSeed.
const (
	SchedGreedyConverge = simt.SchedGreedyConverge
	SchedOldestFirst    = simt.SchedOldestFirst
	SchedYoungestFirst  = simt.SchedYoungestFirst
	SchedLooseFair      = simt.SchedLooseFair
	SchedRandom         = simt.SchedRandom
)

// ParsePolicy parses a group-pick policy name (maxgroup|minpc|roundrobin).
func ParsePolicy(s string) (simt.Policy, error) { return simt.ParsePolicy(s) }

// ParseSchedPolicy parses a warp-scheduler name
// (greedy|oldest|youngest|obe|random).
func ParseSchedPolicy(s string) (simt.SchedPolicy, error) { return simt.ParseSchedPolicy(s) }

// Execution engines: Volta-style independent thread scheduling with
// convergence barriers (the model the paper builds on), or the pre-Volta
// reconvergence stack where barriers do not exist (a baseline ablation).
const (
	ModelITS   = simt.ModelITS
	ModelStack = simt.ModelStack
)

// Inline expands every call to callee inside caller. Per the paper's
// section 6, inlining a common call removes the shared PC and drops any
// interprocedural prediction naming the callee.
func Inline(m *Module, caller, callee string) (sites, droppedPredictions int, err error) {
	return core.Inline(m, caller, callee)
}

// Outline extracts a block's body into a new function and replaces it
// with a call — the refactoring that *creates* a common-call
// reconvergence opportunity (section 6).
func Outline(m *Module, fn, block, newFunc string) error {
	return core.Outline(m, fn, block, newFunc)
}

// UnrollLoop partially unrolls a simple loop; per section 6, Loop Merge
// still applies afterwards and synchronizes once per unrolled group.
func UnrollLoop(m *Module, fn, header string, factor int) ([]string, error) {
	return core.UnrollLoop(m, fn, header, factor)
}

// Coarsen applies thread coarsening (section 3): each thread of the
// rewritten kernel executes `factor` consecutive tasks, creating the
// nested-loop shape Loop Merge needs. Launch with threads/factor threads.
func Coarsen(m *Module, fn string, factor int) error {
	return core.Coarsen(m, fn, factor)
}

// Robustness layer: fail-safe compilation, fault injection, typed
// simulator errors and the differential checker (see internal/diffcheck
// and cmd/diffhunt).
type (
	// SafeCompilation is CompileSafe's result: the verified speculative
	// build, or the PDOM baseline it fell back to (FellBack records which).
	SafeCompilation = core.SafeCompilation
	// SafetyError is the static barrier-safety verifier's rejection;
	// unwrap with errors.As.
	SafetyError = core.SafetyError
	// FaultPlan selects compile-layer barrier perturbations for
	// robustness testing (see ParseFaultPlan and CompileOptions.Faults).
	FaultPlan = core.FaultPlan
	// DeadlockError and BudgetError are the simulator's typed failures;
	// unwrap with errors.As to inspect blocked lanes or spent budgets.
	DeadlockError = simt.DeadlockError
	BudgetError   = simt.BudgetError
	// StarvationError (a runnable warp unissued past RunConfig.StarveLimit)
	// and WatchdogError (RunConfig.WallBudget exceeded) are the liveness
	// monitors' typed failures; unwrap with errors.As.
	StarvationError = simt.StarvationError
	WatchdogError   = simt.WatchdogError
	// DiffKernel, DiffOptions and DiffResult drive the differential
	// checker: any kernel compiled under both pipelines, run under
	// budgeted strict simulation, and compared for state equivalence.
	DiffKernel  = diffcheck.Kernel
	DiffOptions = diffcheck.Options
	DiffResult  = diffcheck.Result
)

// CompileSafe compiles with the static barrier-safety verifier in the
// pipeline, degrading to the PDOM baseline (with a "failsafe" remark)
// when the speculative build is rejected.
func CompileSafe(m *Module, opts CompileOptions) (*SafeCompilation, error) {
	return core.CompileSafe(m, opts)
}

// ParseFaultPlan parses a compile-layer fault spec such as
// "drop-cancel@2+swap-waits".
func ParseFaultPlan(spec string) (FaultPlan, error) { return core.ParseFaultPlan(spec) }

// DiffCheck differentially checks one kernel: baseline versus
// speculative build, both run to completion under a budget, final
// memory compared.
func DiffCheck(k DiffKernel, opts DiffOptions) DiffResult { return diffcheck.Check(k, opts) }

// DiffMinimize greedily shrinks a failing kernel to a minimal
// reproducer that still fails at the same stage.
func DiffMinimize(k DiffKernel, opts DiffOptions) (DiffKernel, DiffResult) {
	return diffcheck.Minimize(k, opts)
}

// Static analysis layer (internal/analyze, cmd/sasmvet): the
// barrier-state abstract interpreter, the unified SRxxxx diagnostics it
// and the safety verifier share, and the static SIMT-efficiency
// estimator.
type (
	// Diagnostic is the unified diagnostic record: stable SRxxxx code,
	// severity, position (function, block, instruction) and an optional
	// fix-it suggestion. The "lint" and "analyze" passes and the
	// barrier-safety verifier all produce this type.
	Diagnostic = analyze.Diagnostic
	// DiagnosticSeverity orders note < warning < error.
	DiagnosticSeverity = analyze.Severity
	// AnalyzeOptions configures Analyze (barrier provenance, efficiency
	// note threshold).
	AnalyzeOptions = analyze.Options
	// AnalyzeReport is Analyze's full result: diagnostics plus the
	// per-kernel static SIMT-efficiency estimates.
	AnalyzeReport = analyze.Report
)

// Diagnostic severities.
const (
	SeverityNote    = analyze.SeverityNote
	SeverityWarning = analyze.SeverityWarning
	SeverityError   = analyze.SeverityError
)

// Analyze runs the full static analyzer — barrier pairing, the
// barrier-state abstract interpreter (deadlock detection), rejoin and
// conflict checks, hygiene warnings and the static SIMT-efficiency
// estimate — over a raw module. Compiled modules get barrier
// provenance via Diagnose or the "analyze" pass instead.
func Analyze(m *Module, opts AnalyzeOptions) *AnalyzeReport { return analyze.Analyze(m, opts) }

// Filter returns the diagnostics at or above min severity;
// Filter(Analyze(m, AnalyzeOptions{}).Diags, SeverityWarning) is the
// warnings-and-errors view the "lint" pass reports.
func Filter(diags []Diagnostic, min DiagnosticSeverity) []Diagnostic {
	return analyze.Filter(diags, min)
}

// Diagnose compiles m under opts with the "analyze" pass inserted
// before register allocation, returning the compilation with
// Diagnostics and StaticEff populated (provenance-aware: the class-
// gated checks see which barriers are speculative, exit or PDOM).
func Diagnose(m *Module, opts CompileOptions) (*Compilation, error) {
	return core.Diagnose(m, opts)
}

// StaticEfficiency returns the analyzer's per-kernel SIMT-efficiency
// prediction for every kernel in m — the screening estimate whose
// ranking tracks the simulator's Figure-7 ordering.
func StaticEfficiency(m *Module) map[string]float64 { return analyze.Efficiency(m) }

// WriteSARIF renders diagnostics as a SARIF 2.1.0 log for editor and
// CI integration (the format cmd/sasmvet emits with -sarif).
func WriteSARIF(w io.Writer, toolName string, diags []Diagnostic) error {
	return analyze.WriteSARIF(w, toolName, diags)
}

// Automated repair layer (internal/repair, sasmvet -fix): the
// analysis-driven fixpoint engine that applies the machine edits error
// diagnostics carry (Diagnostic.Edits) and re-analyzes until clean or a
// stop condition.
type (
	// DiagnosticEdit is one machine-applicable edit attached to a
	// diagnostic: insert/delete a barrier instruction or replace a
	// barrier operand at a (function, block, index) anchor.
	DiagnosticEdit = analyze.Edit
	// RepairOptions configures Repair (barrier provenance, iteration
	// budget).
	RepairOptions = repair.Options
	// RepairReport is the typed fixpoint outcome: the pre-repair
	// findings, every applied edit, the codes resolved, the error
	// diagnostics remaining, and the give-up reason if any.
	RepairReport = repair.Report
	// RepairedRemark records a CompileSafe repair: the verifier
	// rejection that triggered it plus the fixpoint report.
	RepairedRemark = core.RepairedRemark
)

// Repair applies the analyzer's machine edits to m in place, iterating
// analysis and application to a fixpoint under a bounded budget with
// oscillation detection. Clone the module first to keep the original.
// CompileSafe calls this automatically (repair-then-reverify) before
// surrendering a rejected speculative build to the PDOM fail-safe.
func Repair(m *Module, opts RepairOptions) *RepairReport { return repair.Repair(m, opts) }

// RepairableCode reports whether diagnostics with this SR code can
// carry machine edits at all (SR1003's lost wait, for example, cannot:
// its sound position is unreconstructible, so those kernels fall back).
func RepairableCode(code analyze.Code) bool { return repair.Repairable(code) }

// DiagnoseRepaired is Diagnose with the repair pass in front of the
// analyzer: the compilation's RepairReport records the fixpoint and
// Diagnostics reflect the repaired module.
func DiagnoseRepaired(m *Module, opts CompileOptions) (*Compilation, error) {
	return core.DiagnoseRepaired(m, opts)
}

// DOT renders a function's CFG in Graphviz dot syntax, with prediction
// annotations drawn as dashed edges.
func DOT(f *Function) string { return ir.DOT(f) }

// Run launches a compiled module on the SIMT simulator.
func Run(m *Module, cfg RunConfig) (*RunResult, error) { return simt.Run(m, cfg) }

// Machine is a reusable simulation context: one compiled module plus a
// fixed launch shape, relaunchable via Machine.Run with new seeds and
// memory images at near-zero steady-state allocation cost. Sweep loops
// (threshold studies, schedule exploration, service workloads) should
// build one Machine per compilation instead of calling Run per point.
type Machine = simt.Machine

// NewMachine builds a reusable simulation context for m under cfg's
// launch shape. Subsequent Machine.Run calls may vary Seed, Memory,
// budgets and sinks, but not the shape (kernel, thread/grid geometry,
// policy, model, cache).
func NewMachine(m *Module, cfg RunConfig) (*Machine, error) { return simt.NewMachine(m, cfg) }

// Compile caching (internal/ccache): a content-addressed,
// byte-budgeted LRU memoizing Compile/CompileSafe/Diagnose results
// keyed by (canonical IR, pipeline spec, options fingerprint). All
// methods on a nil *CompileCache forward to the direct compile path,
// so a cache pointer can be plumbed unconditionally.
type (
	CompileCache      = ccache.Cache
	CompileCacheStats = ccache.Stats
)

// NewCompileCache returns an empty compile cache bounded to maxBytes of
// estimated retained compilation size (0 selects the default budget).
func NewCompileCache(maxBytes int64) *CompileCache { return ccache.New(maxBytes) }

// UseCompileCache installs (or, with nil, removes) the compile cache
// that every experiment driver in this package — the Figure functions,
// RunFunnel — compiles through, returning the previous cache. Read
// hit/miss counters via DriverCacheStats.
func UseCompileCache(c *CompileCache) *CompileCache { return harness.UseCompileCache(c) }

// DriverCacheStats snapshots the experiment drivers' installed compile
// cache counters (zero when none is installed).
func DriverCacheStats() CompileCacheStats { return harness.CompileCacheStats() }

// Workload access: the paper's benchmark suite (Table 2).
type (
	Workload         = workloads.Workload
	WorkloadInstance = workloads.Instance
	WorkloadConfig   = workloads.BuildConfig
)

// Workloads returns every bundled benchmark.
func Workloads() []*Workload { return workloads.All() }

// WorkloadByName returns one bundled benchmark by name.
func WorkloadByName(name string) (*Workload, error) { return workloads.Get(name) }

// Experiment drivers: each reproduces one figure of the paper.
type (
	Comparison     = harness.Comparison
	ThresholdPoint = harness.ThresholdPoint
	FunnelResult   = harness.FunnelResult
)

// The experiment drivers fan their independent compile+simulate jobs
// out across a worker pool sized to GOMAXPROCS; results are identical
// to a serial run (see internal/harness). Use the FigureNP variants to
// bound the pool explicitly (1 forces serial execution).

// Figure7 measures SIMT efficiency before/after for the annotated suite.
func Figure7(cfg WorkloadConfig) ([]Comparison, error) { return harness.Figure7(cfg, 0) }

// Figure7P is Figure7 with an explicit worker-pool bound.
func Figure7P(cfg WorkloadConfig, parallelism int) ([]Comparison, error) {
	return harness.Figure7(cfg, parallelism)
}

// Figure8 is the Figure 7 experiment viewed as efficiency improvement
// versus speedup.
func Figure8(cfg WorkloadConfig) ([]Comparison, error) { return harness.Figure8(cfg, 0) }

// Figure9 sweeps the soft-barrier threshold for one workload.
func Figure9(name string, cfg WorkloadConfig, thresholds []int) ([]ThresholdPoint, error) {
	return harness.Figure9(name, cfg, thresholds, 0)
}

// Figure9P is Figure9 with an explicit worker-pool bound.
func Figure9P(name string, cfg WorkloadConfig, thresholds []int, parallelism int) ([]ThresholdPoint, error) {
	return harness.Figure9(name, cfg, thresholds, parallelism)
}

// Figure10 measures automatic speculative reconvergence on the
// auto-detected kernels.
func Figure10(cfg WorkloadConfig) ([]Comparison, error) { return harness.Figure10(cfg, 0) }

// Figure10P is Figure10 with an explicit worker-pool bound.
func Figure10P(cfg WorkloadConfig, parallelism int) ([]Comparison, error) {
	return harness.Figure10(cfg, parallelism)
}

// RunFunnel reproduces the section 5.4 application-population study.
func RunFunnel(apps int, seed uint64) (*FunnelResult, error) {
	return harness.RunFunnel(apps, seed, 0)
}

// RunFunnelP is RunFunnel with an explicit worker-pool bound.
func RunFunnelP(apps int, seed uint64, parallelism int) (*FunnelResult, error) {
	return harness.RunFunnel(apps, seed, parallelism)
}
