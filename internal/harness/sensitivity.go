package harness

import (
	"fmt"

	"specrecon/internal/core"
	"specrecon/internal/ir"
	"specrecon/internal/simt"
	"specrecon/internal/workloads"
)

// Timing-model sensitivity analysis. EXPERIMENTS.md documents that our
// cycle model is approximate; this driver re-runs the headline
// comparison under perturbed memory-system constants to show the
// paper-shape conclusions (who wins, roughly by how much) do not hinge
// on the specific cost numbers. The accompanying test pins the
// robustness claim.

// ModelVariant names one memory-model configuration.
type ModelVariant struct {
	Name  string
	Cache simt.CacheConfig
}

// ModelVariants returns the robustness grid: the default model plus
// cheap memory, expensive memory, and a much smaller cache. The
// paper-shape conclusions must hold across all of them.
func ModelVariants() []ModelVariant {
	return []ModelVariant{
		{Name: "default", Cache: simt.CacheConfig{}},
		{Name: "fast-mem", Cache: simt.CacheConfig{MissCost: 20, HitCost: 2, TxThroughput: 2}},
		{Name: "slow-mem", Cache: simt.CacheConfig{MissCost: 300, HitCost: 8, TxThroughput: 12}},
		{Name: "tiny-cache", Cache: simt.CacheConfig{Sets: 16, Ways: 2}},
	}
}

// NoMLPVariant is the ablation of the memory-level-parallelism term:
// setting the per-transaction throughput charge equal to the miss
// latency makes a warp instruction's transactions effectively serial.
// Under it, converged divergent gathers cost as much as diverged ones,
// and the speedups of memory-touching workloads collapse toward 1 —
// demonstrating that MLP is what converts reconvergence into runtime on
// memory-divergent code (as on real GPUs).
func NoMLPVariant() ModelVariant {
	return ModelVariant{Name: "no-mlp", Cache: simt.CacheConfig{MissCost: 80, HitCost: 4, TxThroughput: 80}}
}

// CompareWithCache is Compare under an explicit memory configuration.
func CompareWithCache(w *workloads.Workload, cfg workloads.BuildConfig, cache simt.CacheConfig) (Comparison, error) {
	inst := w.Build(cfg)
	return compare(w.Name, w.Pattern, inst, inst.Module, core.SpecReconOptions(), false, func(_ *ir.Module, runCfg simt.Config) simt.Config {
		runCfg.Cache = cache
		return runCfg
	})
}

// Sensitivity measures every named workload under every model variant.
// The result maps variant name to per-workload comparisons. The
// variant×workload grid is flattened into independent jobs for the
// worker pool and reassembled in grid order, so the map contents match
// a serial run exactly.
func Sensitivity(names []string, cfg workloads.BuildConfig, parallelism int) (map[string][]Comparison, error) {
	variants := ModelVariants()
	results, err := collect("sensitivity", parallelism, len(variants)*len(names), func(i int) (Comparison, error) {
		v := variants[i/len(names)]
		w, err := workloads.Get(names[i%len(names)])
		if err != nil {
			return Comparison{}, err
		}
		c, err := CompareWithCache(w, cfg, v.Cache)
		if err != nil {
			return c, fmt.Errorf("variant %s: %w", v.Name, err)
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string][]Comparison, len(variants))
	for vi, v := range variants {
		out[v.Name] = results[vi*len(names) : (vi+1)*len(names) : (vi+1)*len(names)]
	}
	return out, nil
}
