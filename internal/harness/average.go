package harness

import (
	"math"

	"specrecon/internal/workloads"
)

// Seed-averaged measurements. Single-seed runs are exactly reproducible
// but carry sampling noise from the synthetic tables and RNG streams;
// averaging across seeds gives confidence the figure shapes are not
// seed artifacts (the tests in averaged_test.go rely on this).

// AveragedComparison aggregates Compare across seeds.
type AveragedComparison struct {
	Name       string
	Seeds      int
	MeanBase   float64 // mean baseline SIMT efficiency
	MeanSpec   float64 // mean optimized SIMT efficiency
	MeanSpeed  float64 // mean speedup
	MinSpeed   float64
	MaxSpeed   float64
	StdevSpeed float64
}

// CompareAveraged measures a workload across the given seeds. The
// per-seed runs are independent jobs on the worker pool; aggregation
// happens afterwards in seed order, so the result is identical to a
// serial run.
func CompareAveraged(w *workloads.Workload, cfg workloads.BuildConfig, thresholdOverride int, seeds []uint64, parallelism int) (AveragedComparison, error) {
	out := AveragedComparison{Name: w.Name, Seeds: len(seeds), MinSpeed: math.Inf(1), MaxSpeed: math.Inf(-1)}
	cmps, err := collect("averaged", parallelism, len(seeds), func(i int) (Comparison, error) {
		c := cfg
		c.Seed = seeds[i]
		return Compare(w, c, thresholdOverride)
	})
	if err != nil {
		return out, err
	}
	var speeds []float64
	for _, cmp := range cmps {
		s := cmp.Speedup()
		speeds = append(speeds, s)
		out.MeanBase += cmp.BaseEff
		out.MeanSpec += cmp.SpecEff
		out.MeanSpeed += s
		if s < out.MinSpeed {
			out.MinSpeed = s
		}
		if s > out.MaxSpeed {
			out.MaxSpeed = s
		}
	}
	n := float64(len(seeds))
	out.MeanBase /= n
	out.MeanSpec /= n
	out.MeanSpeed /= n
	var varSum float64
	for _, s := range speeds {
		d := s - out.MeanSpeed
		varSum += d * d
	}
	if len(speeds) > 1 {
		out.StdevSpeed = math.Sqrt(varSum / (n - 1))
	}
	return out, nil
}

// DefaultSeeds is the seed set used by the averaged experiments.
var DefaultSeeds = []uint64{0x5eed, 101, 202, 303}
