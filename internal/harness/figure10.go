package harness

import (
	"specrecon/internal/core"
	"specrecon/internal/corpus"
	"specrecon/internal/workloads"
)

// Figure 10 and the section 5.4 study: automatic speculative
// reconvergence. Two parts: (1) the corpus funnel — how many of a large
// application population are divergent, how many have detected
// opportunity, how many improve significantly; (2) the upside bars for
// the automatically discovered kernels (the OptiX trace kernels and
// MeiyaMD5).

// FunnelResult reproduces the counts of section 5.4: "Of the 520 CUDA
// applications we studied, 75 had a SIMT efficiency of less than about
// 80%. Our implementation detected non-trivial opportunity in 16
// applications, and 5 showed significant improvement."
type FunnelResult struct {
	Studied     int
	LowEff      int // SIMT efficiency below the 80% screen
	Detected    int // non-trivial opportunity found by the detector
	Significant int // speedup and efficiency both improved materially
	Regressed   int // detected but transformed version ran slower
	Fallbacks   int // speculative build rejected by the verifier; PDOM fallback measured
	Repaired    int // speculative build rejected, automatically repaired, re-verified
	// PerApp holds the detail rows for detected applications.
	PerApp []FunnelRow
}

// FunnelRow is one detected application's outcome.
type FunnelRow struct {
	Name    string
	Kind    string
	BaseEff float64
	AutoEff float64
	Speedup float64
	Score   float64
}

// significantSpeedup and significantEffRetention are the screens for a
// "significant improvement" in the funnel: a real runtime win that does
// not trade away SIMT efficiency.
const (
	significantSpeedup      = 1.25
	significantEffRetention = 0.95
	lowEffScreen            = 0.80
)

// funnelOutcome is the per-application result of the funnel, produced
// by independent worker-pool jobs and folded in corpus order so the
// aggregate counts and PerApp rows match a serial run exactly.
type funnelOutcome struct {
	lowEff   bool
	detected bool
	fellBack bool
	repaired bool
	row      FunnelRow
}

// RunFunnel generates a corpus of n synthetic applications and pushes
// them through the detector and the simulator. Each application is an
// independent compile+simulate job on the worker pool.
func RunFunnel(n int, seed uint64, parallelism int) (*FunnelResult, error) {
	apps := corpus.Generate(n, seed)
	res := &FunnelResult{Studied: len(apps)}
	outcomes := make([]funnelOutcome, len(apps))
	err := forEach("funnel", parallelism, len(apps), func(i int) error {
		app := apps[i]
		inst := &workloads.Instance{Module: app.Module, Kernel: app.Kernel, Threads: app.Threads, Seed: app.Seed, Memory: app.Memory}
		base, err := measureBaseline(inst, nil)
		if err != nil {
			return err
		}
		// The detector only considers applications below the screen,
		// mirroring the paper's triage.
		outcomes[i].lowEff = base.res.Metrics.SIMTEfficiency() < lowEffScreen
		if !outcomes[i].lowEff {
			return nil
		}
		annotated := app.Module.Clone()
		applied := core.AutoAnnotate(annotated, core.DefaultAutoDetectOptions())
		if len(applied) == 0 {
			return nil
		}
		outcomes[i].detected = true

		// Fail-safe compilation: a detector-annotated kernel the static
		// verifier rejects is measured as its PDOM fallback (and counted)
		// instead of killing the whole campaign.
		c, err := base.versus(app.Name, app.Kind.String(), annotated, core.SpecReconOptions(), true)
		if err != nil {
			return err
		}
		outcomes[i].fellBack = c.FellBack
		outcomes[i].repaired = c.Repaired
		outcomes[i].row = FunnelRow{
			Name:    c.Name,
			Kind:    c.Pattern,
			BaseEff: c.BaseEff,
			AutoEff: c.SpecEff,
			Speedup: c.Speedup(),
			Score:   applied[0].Score(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, o := range outcomes {
		if o.lowEff {
			res.LowEff++
		}
		if !o.detected {
			continue
		}
		res.Detected++
		if o.fellBack {
			res.Fallbacks++
		}
		if o.repaired {
			res.Repaired++
		}
		res.PerApp = append(res.PerApp, o.row)
		if o.row.Speedup >= significantSpeedup && o.row.AutoEff >= significantEffRetention*o.row.BaseEff {
			res.Significant++
		}
		if o.row.Speedup < 1.0 {
			res.Regressed++
		}
	}
	return res, nil
}

// AutoComparison measures one real workload under automatic detection:
// the module is auto-annotated (any manual predictions stripped first)
// and compared against baseline — the bars of Figure 10.
func AutoComparison(w *workloads.Workload, cfg workloads.BuildConfig) (Comparison, []core.Candidate, error) {
	inst := w.Build(cfg)
	mod, applied := AutoAnnotated(inst.Module, core.DefaultAutoDetectOptions())
	c, err := compare(w.Name, w.Pattern, inst, mod, core.SpecReconOptions(), false, nil)
	return c, applied, err
}

// Figure10 runs automatic speculative reconvergence over the kernels the
// paper reports upside for: the OptiX trace kernels and MeiyaMD5. The
// per-kernel jobs run on the worker pool.
func Figure10(cfg workloads.BuildConfig, parallelism int) ([]Comparison, error) {
	names := []string{"optix-ao", "optix-path", "optix-shadow", "meiyamd5"}
	return collect("figure10", parallelism, len(names), func(i int) (Comparison, error) {
		w, err := workloads.Get(names[i])
		if err != nil {
			return Comparison{}, err
		}
		c, _, err := AutoComparison(w, cfg)
		return c, err
	})
}
