// Package harness drives the paper's experiments: it compiles each
// workload in its baseline and speculative-reconvergence variants, runs
// them on the SIMT simulator, and produces the rows behind every results
// figure of the paper (Figures 7, 8, 9 and 10). cmd/figures formats the
// output; EXPERIMENTS.md records a reference run.
package harness

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"specrecon/internal/core"
	"specrecon/internal/diffcheck"
	"specrecon/internal/ir"
	"specrecon/internal/simt"
	"specrecon/internal/workloads"
)

// launch is the one place the harness reaches the simulator: every
// driver's "compile, configure, run" goes through it. mod — inst.Module
// or a re-annotated clone of it — is compiled under opts through the
// installed cache, fail-safe when safe is set (a build the static
// barrier verifier rejects comes back repaired or as its PDOM fallback,
// flagged on the compilation, instead of failing the figure). The config
// starts from LaunchConfig(inst); adjust, when non-nil, edits it with the
// compiled module in hand (cache geometry, scheduler, sampler, event
// sink, InterleaveWarps).
func launch(inst *workloads.Instance, mod *ir.Module, opts core.Options, safe bool, adjust adjuster) (core.SafeCompilation, *simt.Result, error) {
	comp, err := compile(mod, opts, safe)
	if err != nil {
		return comp, nil, fmt.Errorf("compile %s: %w", mod.Name, err)
	}
	cfg := LaunchConfig(inst)
	if adjust != nil {
		cfg = adjust(comp.Module, cfg)
	}
	res, err := simt.Run(comp.Module, cfg)
	if err != nil {
		return comp, nil, fmt.Errorf("run %s: %w", mod.Name, err)
	}
	return comp, res, nil
}

// adjuster edits a launch's config once its module is compiled. Config
// in, config out: the config never leaves launch's frame.
type adjuster func(compiled *ir.Module, cfg simt.Config) simt.Config

// Run compiles one workload instance with the given options and runs it.
func Run(inst *workloads.Instance, opts core.Options) (*core.Compilation, *simt.Result, error) {
	comp, res, err := launch(inst, inst.Module, opts, false, nil)
	if err != nil {
		return nil, nil, err
	}
	return comp.Compilation, res, nil
}

// LaunchConfig maps an instance's launch shape and scheduler selection
// onto the simulator config: flat single-SM by default, a GPU-scale grid
// launch when the instance was built with one. Every driver here and the
// binary that runs one instance (cmd/specrecon) start from it.
func LaunchConfig(inst *workloads.Instance) simt.Config {
	return simt.Config{
		Kernel:    inst.Kernel,
		Threads:   inst.Threads,
		Seed:      inst.Seed,
		Memory:    inst.Memory,
		Strict:    true,
		Grid:      inst.Grid,
		CTASize:   inst.CTASize,
		SMs:       inst.SMs,
		Workers:   inst.Workers,
		Policy:    inst.Policy,
		Sched:     inst.Sched,
		SchedSeed: inst.SchedSeed,
	}
}

// DiffcheckKernel is LaunchConfig's counterpart for the differential
// checker: the instance as the kernel diffcheck.Check compiles and
// launches itself. The scheduler selection is not part of a Kernel; it
// travels in diffcheck.Options.
func DiffcheckKernel(inst *workloads.Instance) diffcheck.Kernel {
	return diffcheck.Kernel{
		Name:    inst.Module.Name,
		Module:  inst.Module,
		Entry:   inst.Kernel,
		Threads: inst.Threads,
		Memory:  inst.Memory,
		Seed:    inst.Seed,
		Grid:    inst.Grid,
		CTASize: inst.CTASize,
		SMs:     inst.SMs,
		Workers: inst.Workers,
	}
}

// AutoAnnotated returns a clone of m annotated by the automatic detector
// alone — any manual predictions are stripped first, so the detector
// works unaided — and the candidates it applied.
func AutoAnnotated(m *ir.Module, opts core.AutoDetectOptions) (*ir.Module, []core.Candidate) {
	m = m.Clone()
	for _, f := range m.Funcs {
		f.Predictions = nil
	}
	return m, core.AutoAnnotate(m, opts)
}

// Comparison is one bar pair of Figure 7 plus the derived Figure 8 view.
type Comparison struct {
	Name       string
	Pattern    string
	BaseEff    float64 // baseline SIMT efficiency, 0..1
	SpecEff    float64 // speculative-reconvergence SIMT efficiency
	BaseCycles int64
	SpecCycles int64
	BaseIssues int64
	SpecIssues int64
	Conflicts  int
	Threshold  int // effective soft-barrier threshold (0 = hard barrier)
	// BaseCompile/SpecCompile are the compiler pipeline wall times for
	// each build; SpecPipeline is the pass spec the optimized build ran.
	BaseCompile  time.Duration
	SpecCompile  time.Duration
	SpecPipeline string
	// FellBack records that the speculative build was rejected by the
	// static barrier verifier and the row measured the PDOM fallback
	// instead; FallbackReason is the verifier's first complaint.
	FellBack       bool
	FallbackReason string
	// Repaired records that the speculative build was initially rejected
	// but automatically repaired and re-verified — the row measures the
	// repaired speculative build. RepairSummary is the repair engine's
	// one-line report (edits applied, codes resolved).
	Repaired      bool
	RepairSummary string
	// StaticEff is the static analyzer's SIMT-efficiency prediction for
	// the kernel (0 when the analyzer did not run); DiagCodes lists the
	// distinct diagnostic codes it reported on the measured speculative
	// build, sorted.
	StaticEff float64
	DiagCodes []string
}

// EffImprovement returns SpecEff / BaseEff (Figure 8's first series).
func (c Comparison) EffImprovement() float64 {
	if c.BaseEff == 0 {
		return 0
	}
	return c.SpecEff / c.BaseEff
}

// Speedup returns baseline cycles / optimized cycles (Figure 8's second
// series).
func (c Comparison) Speedup() float64 {
	if c.SpecCycles == 0 {
		return 0
	}
	return float64(c.BaseCycles) / float64(c.SpecCycles)
}

// Compare builds the workload once and measures baseline versus
// speculative reconvergence. A negative thresholdOverride keeps each
// prediction's own (tuned) threshold.
func Compare(w *workloads.Workload, cfg workloads.BuildConfig, thresholdOverride int) (Comparison, error) {
	specOpts := core.SpecReconOptions()
	specOpts.ThresholdOverride = thresholdOverride
	return CompareOpts(w, cfg, specOpts)
}

// CompareOpts is Compare with the speculative build's options fully
// caller-controlled (fault-injection tests perturb them). The
// speculative side compiles fail-safe: a build the verifier rejects is
// measured repaired or as its PDOM fallback and flagged on the row
// instead of failing the experiment.
func CompareOpts(w *workloads.Workload, cfg workloads.BuildConfig, specOpts core.Options) (Comparison, error) {
	inst := w.Build(cfg)
	return compare(w.Name, w.Pattern, inst, inst.Module, specOpts, true, nil)
}

// compare is the measured pair behind every row of every figure: inst's
// PDOM build and the speculative build of mod (inst.Module or a
// re-annotated clone) under specOpts, launched on the same inputs under
// the same adjust, final memories required equal. A new experiment is a
// caller of compare (or, when one baseline serves many speculative
// builds, of measureBaseline and versus), not a copy of it.
func compare(name, pattern string, inst *workloads.Instance, mod *ir.Module, specOpts core.Options, safe bool, adjust adjuster) (Comparison, error) {
	base, err := measureBaseline(inst, adjust)
	if err != nil {
		return Comparison{}, err
	}
	return base.versus(name, pattern, mod, specOpts, safe)
}

// baseline is the PDOM side of a measured pair, kept so threshold sweeps
// and the funnel measure it once for everything they compare with it.
type baseline struct {
	inst   *workloads.Instance
	adjust adjuster
	comp   core.SafeCompilation
	res    *simt.Result
}

func measureBaseline(inst *workloads.Instance, adjust adjuster) (baseline, error) {
	comp, res, err := launch(inst, inst.Module, core.BaselineOptions(), false, adjust)
	return baseline{inst: inst, adjust: adjust, comp: comp, res: res}, err
}

// versus launches the speculative side against b, checks the two runs
// agree, and fills the row — the only place a Comparison is built.
func (b *baseline) versus(name, pattern string, mod *ir.Module, specOpts core.Options, safe bool) (Comparison, error) {
	comp, spec, err := launch(b.inst, mod, specOpts, safe, b.adjust)
	if err != nil {
		return Comparison{}, err
	}
	if err := sameResults(b.res, spec); err != nil {
		return Comparison{}, fmt.Errorf("%s: %w", name, err)
	}
	threshold := specOpts.ThresholdOverride
	if threshold < 0 {
		threshold = firstThreshold(mod)
	}
	c := Comparison{
		Name:         name,
		Pattern:      pattern,
		BaseEff:      b.res.Metrics.SIMTEfficiency(),
		SpecEff:      spec.Metrics.SIMTEfficiency(),
		BaseCycles:   b.res.Metrics.Cycles,
		SpecCycles:   spec.Metrics.Cycles,
		BaseIssues:   b.res.Metrics.Issues,
		SpecIssues:   spec.Metrics.Issues,
		Conflicts:    len(comp.Conflicts),
		Threshold:    threshold,
		BaseCompile:  b.comp.CompileTime,
		SpecCompile:  comp.CompileTime,
		SpecPipeline: comp.Pipeline,
		FellBack:     comp.FellBack,
		Repaired:     comp.Repaired != nil,
		StaticEff:    comp.StaticEff[b.inst.Kernel],
	}
	if comp.FellBack && comp.FallbackErr != nil {
		c.FallbackReason, _, _ = strings.Cut(comp.FallbackErr.Error(), "\n")
	}
	if c.Repaired {
		c.RepairSummary = comp.Repaired.Report.Summary()
	}
	for _, d := range comp.Diagnostics {
		if d.Code != "" {
			c.DiagCodes = append(c.DiagCodes, string(d.Code))
		}
	}
	slices.Sort(c.DiagCodes)
	c.DiagCodes = slices.Compact(c.DiagCodes)
	return c, nil
}

// sameResults checks that two runs left the same global memory and the
// same CTA shared segments. The comparison (including the float
// tolerance for kernels with floating-point atomics, such as gpu-mcml's
// absorption grid) is the differential checker's: the experiments and
// the robustness campaigns must agree on what "same results" means.
func sameResults(a, b *simt.Result) error {
	if err := diffcheck.SameMemory(a.Memory, b.Memory); err != nil {
		return err
	}
	return diffcheck.SameShared(a.Shared, b.Shared)
}

func firstThreshold(m *ir.Module) int {
	for _, f := range m.Funcs {
		for _, p := range f.Predictions {
			return p.Threshold
		}
	}
	return 0
}

// Figure7 measures SIMT efficiency before and after speculative
// reconvergence for every programmer-annotated benchmark (paper section
// 5.2). Each workload runs at its tuned per-prediction threshold. The
// per-workload jobs are independent and run on the worker pool (see
// pool.go); parallelism 0 selects GOMAXPROCS, 1 runs serially.
func Figure7(cfg workloads.BuildConfig, parallelism int) ([]Comparison, error) {
	ws := workloads.Annotated()
	return collect(parallelism, len(ws), func(i int) (Comparison, error) {
		return Compare(ws[i], cfg, -1)
	})
}

// Figure8 is the same experiment viewed as relative SIMT-efficiency
// improvement versus speedup; the paper observes the former roughly
// upper-bounds the latter.
func Figure8(cfg workloads.BuildConfig, parallelism int) ([]Comparison, error) {
	return Figure7(cfg, parallelism)
}

// ThresholdPoint is one x-position of Figure 9.
type ThresholdPoint struct {
	Threshold int
	Eff       float64
	Speedup   float64
	Cycles    int64
}

// Figure9 sweeps the soft-barrier threshold for one workload (the paper
// shows PathTracer and XSBench). Threshold t means the waiting cohort
// proceeds once t lanes have collected; t=0 never waits, t=32 waits for
// every possible participant.
func Figure9(name string, cfg workloads.BuildConfig, thresholds []int, parallelism int) ([]ThresholdPoint, error) {
	w, err := workloads.Get(name)
	if err != nil {
		return nil, err
	}
	rows, err := ThresholdSweep(w.Build(cfg), core.SpecReconOptions(), thresholds, parallelism)
	if err != nil {
		return nil, err
	}
	out := make([]ThresholdPoint, len(rows))
	for i, c := range rows {
		out[i] = ThresholdPoint{Threshold: thresholds[i], Eff: c.SpecEff, Speedup: c.Speedup(), Cycles: c.SpecCycles}
	}
	return out, nil
}

// ThresholdSweep measures inst's speculative build under specOpts at
// each soft-barrier threshold, one row per threshold, every point's
// final memory checked against the baseline's.
//
// The baseline is compiled and simulated exactly once and shared by
// every point, and the instance's IR is verified once up front: each
// threshold job then compiles the shared verified module with
// AssumeVerified (Compile clones before transforming, so concurrent
// jobs never touch shared mutable state) instead of re-verifying the
// same input per point.
func ThresholdSweep(inst *workloads.Instance, specOpts core.Options, thresholds []int, parallelism int) ([]Comparison, error) {
	name := inst.Module.Name
	base, err := measureBaseline(inst, nil)
	if err != nil {
		return nil, err
	}
	if err := ir.VerifyModule(inst.Module); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	specOpts.AssumeVerified = true
	return collect(parallelism, len(thresholds), func(i int) (Comparison, error) {
		opts := specOpts
		opts.ThresholdOverride = thresholds[i]
		c, err := base.versus(name, "", inst.Module, opts, false)
		if err != nil {
			return c, fmt.Errorf("threshold %d: %w", thresholds[i], err)
		}
		return c, nil
	})
}
