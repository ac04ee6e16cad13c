package harness

import (
	"math"
	"testing"

	"specrecon/internal/core"
	"specrecon/internal/workloads"
)

// TestReferenceNumbersPinned pins the exact deterministic reference run
// recorded in EXPERIMENTS.md (defaults: 64 threads, seed 0x5eed). The
// whole stack is deterministic, so these reproduce bit-for-bit; a small
// tolerance absorbs only float formatting. If a deliberate change to a
// workload or pass shifts these, update EXPERIMENTS.md alongside this
// table.
func TestReferenceNumbersPinned(t *testing.T) {
	want := []struct {
		name    string
		baseEff float64 // percent
		specEff float64
		speedup float64
	}{
		{"callmicro", 52.7, 89.1, 1.87},
		{"gpu-mcml", 26.5, 54.1, 1.96},
		{"mc-gpu", 24.4, 49.7, 1.96},
		{"mcb", 24.8, 47.3, 2.13},
		{"mummer", 25.1, 48.4, 1.30},
		{"pathtracer", 26.6, 42.4, 1.89},
		{"rsbench", 22.7, 46.3, 1.74},
		{"xsbench", 41.0, 54.4, 1.19},
	}
	rows, err := Figure7(workloads.BuildConfig{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Comparison{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	for _, w := range want {
		r, ok := byName[w.name]
		if !ok {
			t.Errorf("%s missing from Figure 7", w.name)
			continue
		}
		if math.Abs(100*r.BaseEff-w.baseEff) > 0.15 {
			t.Errorf("%s: base eff %.1f%%, EXPERIMENTS.md records %.1f%%", w.name, 100*r.BaseEff, w.baseEff)
		}
		if math.Abs(100*r.SpecEff-w.specEff) > 0.15 {
			t.Errorf("%s: spec eff %.1f%%, EXPERIMENTS.md records %.1f%%", w.name, 100*r.SpecEff, w.specEff)
		}
		if math.Abs(r.Speedup()-w.speedup) > 0.015 {
			t.Errorf("%s: speedup %.2fx, EXPERIMENTS.md records %.2fx", w.name, r.Speedup(), w.speedup)
		}
	}
}

// TestGPUScalingPinned pins the strong-scaling numbers EXPERIMENTS.md
// records: the RSBench speculative build launched as a fixed grid of 16
// CTAs of 64 threads while the SM count and the worker shards grow. A
// launch takes its slowest SM's cycles, so launch cycles fall as the
// CTAs spread over more SMs, while the cycles summed over the SMs stay
// within 1.4 % of the one-SM launch; the worker count moves nothing.
func TestGPUScalingPinned(t *testing.T) {
	w, err := workloads.Get("rsbench")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sms, workers          int
		cycles, totalSMCycles int64
	}{
		{1, 1, 4034779, 4034779},
		{4, 1, 1045186, 4062899},
		{4, 4, 1045186, 4062899},
		{8, 8, 540376, 4090335},
	} {
		inst := w.Build(workloads.BuildConfig{Grid: 16, CTASize: 64, SMs: tc.sms, Workers: tc.workers})
		_, res, err := Run(inst, core.SpecReconOptions())
		if err != nil {
			t.Fatal(err)
		}
		m := res.Metrics
		if m.Cycles != tc.cycles || m.TotalSMCycles != tc.totalSMCycles {
			t.Errorf("%d SMs, %d workers: %d launch / %d SM cycles, EXPERIMENTS.md records %d / %d",
				tc.sms, tc.workers, m.Cycles, m.TotalSMCycles, tc.cycles, tc.totalSMCycles)
		}
		if eff := 100 * m.SIMTEfficiency(); math.Abs(eff-47.78) > 0.005 {
			t.Errorf("%d SMs, %d workers: SIMT efficiency %.2f%%, EXPERIMENTS.md records 47.78%%", tc.sms, tc.workers, eff)
		}
	}
}
