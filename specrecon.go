// Package specrecon is the library face of this repository, a
// reproduction of "Speculative Reconvergence for Improved SIMT
// Efficiency" (Damani et al., CGO 2020): what a program needs to do the
// paper's one experiment — build or parse a kernel, mark a reconvergence
// point with Builder.Predict, compile it with and without speculative
// reconvergence, run both on the SIMT simulator, and read the SIMT
// efficiency — and to rerun the paper's figures over the bundled
// workloads. The programs under examples/ and the package's own tests
// use all of it.
//
// It is deliberately no wider than that. The static analyzer, automated
// repair, the differential checker, the profiler, trace exporter and
// lane timeline and fault injection are reached through the commands
// under cmd/ (specrecon, figures, sasmvet, diffhunt), which import the
// internal packages directly. A name is added here when a
// program under examples/ needs it; testdata/facade.golden pins the set.
package specrecon

import (
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

// ModelStack is the pre-Volta reconvergence stack, where barriers do not
// exist (a baseline ablation).
const ModelStack = simt.ModelStack

// Run launches a compiled module on the SIMT simulator.
func Run(m *Module, cfg RunConfig) (*RunResult, error) { return simt.Run(m, cfg) }

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
// internal/harness).
type (
	ThresholdPoint = harness.ThresholdPoint
	FunnelResult   = harness.FunnelResult
)

// Figure9 sweeps the soft-barrier threshold for one workload.
func Figure9(name string, cfg WorkloadConfig, thresholds []int) ([]ThresholdPoint, error) {
	return harness.Figure9(name, cfg, thresholds, 0)
}

// RunFunnel reproduces the section 5.4 application-population study.
func RunFunnel(apps int, seed uint64) (*FunnelResult, error) {
	return harness.RunFunnel(apps, seed, 0)
}
