// Package specrecon is the library face of this repository, a
// reproduction of "Speculative Reconvergence for Improved SIMT
// Efficiency" (Damani et al., CGO 2020): what a program needs to do the
// paper's one experiment — build or parse a kernel, mark a reconvergence
// point with Builder.Predict, compile it with and without speculative
// reconvergence, run both on the SIMT simulator, and read the SIMT
// efficiency — and to rerun the paper's figures over the bundled
// workloads. The programs under examples/ use all of it.
//
// It is deliberately no wider than that. The static analyzer, automated
// repair, the differential checker, the profiler and trace exporter and
// fault injection are reached through the commands under cmd/
// (specrecon, figures, sasmvet, diffhunt, simtviz), which import the
// internal packages directly. A name is added here when a
// program under examples/ needs it; testdata/facade.golden pins the set.
package specrecon

import (
	"specrecon/internal/ccache"
	"specrecon/internal/core"
	"specrecon/internal/harness"
	"specrecon/internal/ir"
	"specrecon/internal/simt"
	"specrecon/internal/workloads"
)

// The IR: construct kernels with NewModule and NewBuilder, or parse the
// textual format with ParseModule.
type (
	Module   = ir.Module
	Function = ir.Function
	Builder  = ir.Builder
)

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
	Pipeline       = core.Pipeline
)

// DeconflictStatic selects static deconfliction (paper section 4.3) in
// CompileOptions.Deconflict; SpecReconOptions selects the dynamic
// strategy the paper evaluates.
const DeconflictStatic = core.DeconflictStatic

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

// ParsePipeline parses a pass spec string such as
// "pdom,predict,deconflict=dynamic,alloc" into a Pipeline.
func ParsePipeline(spec string) (*Pipeline, error) { return core.ParsePipeline(spec) }

// CompilePipeline clones m and runs an explicit pass pipeline over it;
// set Pipeline.VerifyEach to verify the module between passes.
func CompilePipeline(m *Module, opts CompileOptions, pipe *Pipeline) (*Compilation, error) {
	return core.CompilePipeline(m, opts, pipe)
}

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

// Inline expands every call to callee inside caller. Per the paper's
// section 6, inlining a common call removes the shared PC and drops any
// interprocedural prediction naming the callee.
func Inline(m *Module, caller, callee string) (sites, droppedPredictions int, err error) {
	return core.Inline(m, caller, callee)
}

// The simulator: RunResult.Metrics holds the SIMT efficiency, cycle and
// issue counts a comparison reads.
type (
	RunConfig = simt.Config
	RunResult = simt.Result
	Metrics   = simt.Metrics
)

// The group-pick policies of the warp scheduler (RunConfig.Policy) and
// the execution engines (RunConfig.Model) are one declaration each so
// that go doc -short, and with it the golden, lists every name.

// PolicyMaxGroup issues the largest convergent group of a warp first.
const PolicyMaxGroup = simt.PolicyMaxGroup

// PolicyMinPC issues the group at the lowest program counter first.
const PolicyMinPC = simt.PolicyMinPC

// PolicyRoundRobin rotates over a warp's groups.
const PolicyRoundRobin = simt.PolicyRoundRobin

// ModelITS is Volta-style independent thread scheduling with convergence
// barriers, the model the paper builds on.
const ModelITS = simt.ModelITS

// ModelStack is the pre-Volta reconvergence stack, where barriers do not
// exist (a baseline ablation).
const ModelStack = simt.ModelStack

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

// CompileCache is a content-addressed, byte-budgeted LRU memoizing
// Compile/CompileSafe/Diagnose results keyed by (canonical IR, pipeline
// spec, options fingerprint). All methods on a nil *CompileCache forward
// to the direct compile path, so a cache pointer can be plumbed
// unconditionally.
type CompileCache = ccache.Cache

// NewCompileCache returns an empty compile cache bounded to maxBytes of
// estimated retained compilation size (0 selects the default budget).
func NewCompileCache(maxBytes int64) *CompileCache { return ccache.New(maxBytes) }

// The paper's benchmark suite (Table 2).
type (
	Workload         = workloads.Workload
	WorkloadInstance = workloads.Instance
	WorkloadConfig   = workloads.BuildConfig
)

// Workloads returns every bundled benchmark.
func Workloads() []*Workload { return workloads.All() }

// WorkloadByName returns one bundled benchmark by name.
func WorkloadByName(name string) (*Workload, error) { return workloads.Get(name) }

// Experiment drivers: each reproduces one figure of the paper. They fan
// their independent compile+simulate jobs out across a worker pool sized
// to GOMAXPROCS, with results identical to a serial run (see
// internal/harness); the P variants bound the pool explicitly (1 forces
// serial execution).
type (
	Comparison     = harness.Comparison
	ThresholdPoint = harness.ThresholdPoint
	FunnelResult   = harness.FunnelResult
)

// Figure7P measures SIMT efficiency before/after for the annotated suite.
func Figure7P(cfg WorkloadConfig, parallelism int) ([]Comparison, error) {
	return harness.Figure7(cfg, parallelism)
}

// Figure9 sweeps the soft-barrier threshold for one workload.
func Figure9(name string, cfg WorkloadConfig, thresholds []int) ([]ThresholdPoint, error) {
	return harness.Figure9(name, cfg, thresholds, 0)
}

// Figure9P is Figure9 with an explicit worker-pool bound.
func Figure9P(name string, cfg WorkloadConfig, thresholds []int, parallelism int) ([]ThresholdPoint, error) {
	return harness.Figure9(name, cfg, thresholds, parallelism)
}

// RunFunnel reproduces the section 5.4 application-population study.
func RunFunnel(apps int, seed uint64) (*FunnelResult, error) {
	return harness.RunFunnel(apps, seed, 0)
}

// RunFunnelP is RunFunnel with an explicit worker-pool bound.
func RunFunnelP(apps int, seed uint64, parallelism int) (*FunnelResult, error) {
	return harness.RunFunnel(apps, seed, parallelism)
}
