// Package harness drives the paper's experiments: it compiles each
// workload in its baseline and speculative-reconvergence variants, runs
// them on the SIMT simulator, and produces the rows behind every results
// figure of the paper (Figures 7, 8, 9 and 10). cmd/figures formats the
// output; EXPERIMENTS.md records a reference run.
package harness

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"specrecon/internal/core"
	"specrecon/internal/diffcheck"
	"specrecon/internal/ir"
	"specrecon/internal/simt"
	"specrecon/internal/workloads"
)

// Run compiles one workload instance with the given options and runs it.
func Run(inst *workloads.Instance, opts core.Options) (*core.Compilation, *simt.Result, error) {
	comp, err := compile(inst.Module, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("compile %s: %w", inst.Module.Name, err)
	}
	res, err := simt.Run(comp.Module, LaunchConfig(inst))
	if err != nil {
		return nil, nil, fmt.Errorf("run %s: %w", inst.Module.Name, err)
	}
	return comp, res, nil
}

// LaunchConfig maps an instance's launch shape and scheduler selection
// onto the simulator config: flat single-SM by default, a GPU-scale grid
// launch when the instance was built with one. Every driver here and the
// binaries that run one instance (cmd/specrecon, cmd/simtviz) start from
// it.
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

// RunSafe is Run through fail-safe compilation: when the static barrier
// verifier rejects the speculative build, the PDOM fallback runs instead
// and the returned compilation records the rejection. Experiment rows
// built from RunSafe therefore always complete, with fallbacks reported
// rather than aborting the whole figure.
func RunSafe(inst *workloads.Instance, opts core.Options) (*core.SafeCompilation, *simt.Result, error) {
	comp, err := compileSafe(inst.Module, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("compile %s: %w", inst.Module.Name, err)
	}
	res, err := simt.Run(comp.Module, LaunchConfig(inst))
	if err != nil {
		return nil, nil, fmt.Errorf("run %s: %w", inst.Module.Name, err)
	}
	return comp, res, nil
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
// speculative side compiles through CompileSafe: a build the verifier
// rejects is measured as its PDOM fallback and flagged on the row
// instead of failing the experiment.
func CompareOpts(w *workloads.Workload, cfg workloads.BuildConfig, specOpts core.Options) (Comparison, error) {
	inst := w.Build(cfg)
	baseComp, base, err := Run(inst, core.BaselineOptions())
	if err != nil {
		return Comparison{}, err
	}
	comp, spec, err := RunSafe(inst, specOpts)
	if err != nil {
		return Comparison{}, err
	}
	if err := VerifySameResults(base.Memory, spec.Memory); err != nil {
		return Comparison{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	threshold := specOpts.ThresholdOverride
	if threshold < 0 {
		threshold = firstThreshold(inst.Module)
	}
	c := Comparison{
		Name:         w.Name,
		Pattern:      w.Pattern,
		BaseEff:      base.Metrics.SIMTEfficiency(),
		SpecEff:      spec.Metrics.SIMTEfficiency(),
		BaseCycles:   base.Metrics.Cycles,
		SpecCycles:   spec.Metrics.Cycles,
		BaseIssues:   base.Metrics.Issues,
		SpecIssues:   spec.Metrics.Issues,
		Conflicts:    len(comp.Conflicts),
		Threshold:    threshold,
		BaseCompile:  baseComp.CompileTime,
		SpecCompile:  comp.CompileTime,
		SpecPipeline: comp.Pipeline,
		FellBack:     comp.FellBack,
	}
	if comp.FellBack && comp.FallbackErr != nil {
		c.FallbackReason, _, _ = strings.Cut(comp.FallbackErr.Error(), "\n")
	}
	if comp.Repaired != nil {
		c.Repaired = true
		c.RepairSummary = comp.Repaired.Report.Summary()
	}
	c.StaticEff = comp.StaticEff[inst.Kernel]
	seen := map[string]bool{}
	for _, d := range comp.Diagnostics {
		if d.Code != "" && !seen[string(d.Code)] {
			seen[string(d.Code)] = true
			c.DiagCodes = append(c.DiagCodes, string(d.Code))
		}
	}
	sort.Strings(c.DiagCodes)
	return c, nil
}

func firstThreshold(m *ir.Module) int {
	for _, f := range m.Funcs {
		for _, p := range f.Predictions {
			return p.Threshold
		}
	}
	return 0
}

// VerifySameResults checks that two final memory images agree. The
// comparison (including the float tolerance for kernels with
// floating-point atomics, such as gpu-mcml's absorption grid) is the
// differential checker's: the experiments and the robustness campaigns
// must agree on what "same results" means.
func VerifySameResults(a, b []uint64) error {
	return diffcheck.SameMemory(a, b)
}

// Figure7 measures SIMT efficiency before and after speculative
// reconvergence for every programmer-annotated benchmark (paper section
// 5.2). Each workload runs at its tuned per-prediction threshold. The
// per-workload jobs are independent and run on the worker pool (see
// pool.go); parallelism 0 selects GOMAXPROCS, 1 runs serially.
func Figure7(cfg workloads.BuildConfig, parallelism int) ([]Comparison, error) {
	ws := workloads.Annotated()
	out := make([]Comparison, len(ws))
	err := forEach("figure7", parallelism, len(ws), func(i int) error {
		c, err := Compare(ws[i], cfg, -1)
		if err != nil {
			return err
		}
		out[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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
//
// The baseline is compiled and simulated exactly once and shared by
// every point, and the workload's IR is verified once up front: each
// threshold job then compiles the shared verified module with
// AssumeVerified (Compile clones before transforming, so concurrent
// jobs never touch shared mutable state) instead of re-verifying the
// same input per point.
func Figure9(name string, cfg workloads.BuildConfig, thresholds []int, parallelism int) ([]ThresholdPoint, error) {
	w, err := workloads.Get(name)
	if err != nil {
		return nil, err
	}
	inst := w.Build(cfg)
	_, base, err := Run(inst, core.BaselineOptions())
	if err != nil {
		return nil, err
	}
	if err := ir.VerifyModule(inst.Module); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	out := make([]ThresholdPoint, len(thresholds))
	err = forEach("figure9", parallelism, len(thresholds), func(i int) error {
		t := thresholds[i]
		specOpts := core.SpecReconOptions()
		specOpts.ThresholdOverride = t
		specOpts.AssumeVerified = true
		comp, err := compile(inst.Module, specOpts)
		if err != nil {
			return fmt.Errorf("threshold %d: %w", t, err)
		}
		spec, err := simt.Run(comp.Module, LaunchConfig(inst))
		if err != nil {
			return fmt.Errorf("threshold %d: %w", t, err)
		}
		if err := VerifySameResults(base.Memory, spec.Memory); err != nil {
			return fmt.Errorf("threshold %d: %w", t, err)
		}
		out[i] = ThresholdPoint{
			Threshold: t,
			Eff:       spec.Metrics.SIMTEfficiency(),
			Speedup:   float64(base.Metrics.Cycles) / float64(spec.Metrics.Cycles),
			Cycles:    spec.Metrics.Cycles,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
