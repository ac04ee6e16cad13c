package simt_test

import (
	"testing"

	"specrecon/internal/ir"
	"specrecon/internal/obs"
	"specrecon/internal/simt"
)

// TestSteadyStateIssueAllocFree pins the tentpole perf property: once a
// warp is warmed up (lane call stacks grown, block-visit rows created,
// cache sets filled), the ITS engine's issue loop performs zero heap
// allocations per step — with no sink attached, and with the profiler
// consuming the full event stream. A regression here multiplies across
// the hundreds of thousands of issue slots behind every figure.
func TestSteadyStateIssueAllocFree(t *testing.T) {
	mod, err := ir.Parse(simt.AllocTestKernel)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		events func() simt.EventSink
	}{
		{"bare", func() simt.EventSink { return nil }},
		{"profile", func() simt.EventSink { return obs.NewProfile(mod) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := simt.Config{Threads: ir.WarpWidth, Seed: 1, Strict: true, Events: tc.events()}
			h, err := simt.NewHandSim(mod, cfg)
			if err != nil {
				t.Fatal(err)
			}
			stepOnce := func() {
				done, err := h.Step()
				if err != nil {
					t.Fatal(err)
				}
				if done {
					t.Fatal("kernel finished during measurement; extend the loop bound")
				}
			}
			for i := 0; i < 2000; i++ {
				stepOnce()
			}
			if avg := testing.AllocsPerRun(500, stepOnce); avg != 0 {
				t.Fatalf("steady-state allocations per issue = %v, want 0", avg)
			}
		})
	}

	// Every non-greedy scheduler policy must keep the flat issue loop
	// allocation-free too: a multi-warp wave driven one scheduling slot
	// at a time, with the profiler attached and the starvation monitor
	// armed (high limit, so the periodic scan runs but never fires).
	for _, sp := range simt.SchedPolicies() {
		if sp == simt.SchedGreedyConverge {
			continue
		}
		t.Run("sched-"+sp.String(), func(t *testing.T) {
			cfg := simt.Config{
				Threads: 2 * ir.WarpWidth, Seed: 1, Strict: true,
				Sched: sp, SchedSeed: 7, StarveLimit: 1 << 30,
				Events: obs.NewProfile(mod),
			}
			h, err := simt.NewHandWave(mod, cfg)
			if err != nil {
				t.Fatal(err)
			}
			stepOnce := func() {
				progress, err := h.Step()
				if err != nil {
					t.Fatal(err)
				}
				if !progress {
					t.Fatal("wave retired during measurement; extend the loop bound")
				}
			}
			for i := 0; i < 2000; i++ {
				stepOnce()
			}
			if avg := testing.AllocsPerRun(500, stepOnce); avg != 0 {
				t.Fatalf("steady-state allocations per scheduling slot = %v, want 0", avg)
			}
		})
	}
}

// TestSteadyStateIssueAllocFreeGrid extends the allocation guard to the
// GPU hierarchy: a multi-CTA wave resident on one SM (in place on a
// one-SM grid, on a copy-on-write fork on a two-SM one), with shared-memory
// traffic and a workgroup barrier in the hot loop, still issues with
// zero heap allocations per round-robin pass — bare, with the profiler
// and with a counting sink on Config.Events, and with the occupancy
// sampler recording every pass (stride 1) into a fixed-state
// obs.OccupancyStats on Config.Samples. A serial launch (Workers 1)
// delivers to both in place (NewHandWave picks SM 0's sinks the way
// launch does).
func TestSteadyStateIssueAllocFreeGrid(t *testing.T) {
	mod, err := ir.Parse(simt.AllocTestKernelGrid)
	if err != nil {
		t.Fatal(err)
	}
	profSink := func() simt.EventSink { return obs.NewProfile(mod) }
	countSink := func() simt.EventSink {
		var counts [16]int64
		return simt.SinkFunc(func(ev simt.Event) { counts[ev.Kind&15]++ })
	}
	type guardCase struct {
		name   string
		events func() simt.EventSink // nil: no event sink
		stride int64
		sched  simt.SchedPolicy
	}
	cases := []guardCase{
		{name: "bare"},
		{name: "profile", events: profSink},
		{name: "sampler", stride: 1},
		{name: "profile+sampler", events: profSink, stride: 1},
		{name: "events", events: countSink},
		{name: "events+samples", events: countSink, stride: 1},
	}
	// Re-pin the guard under every non-greedy scheduler policy in the
	// most demanding shape: profiler attached, sampler at stride 1 and
	// the starvation monitor armed (high limit — the scan runs, never
	// fires).
	for _, sp := range simt.SchedPolicies() {
		if sp == simt.SchedGreedyConverge {
			continue
		}
		cases = append(cases, guardCase{name: "sched-" + sp.String(), events: profSink, stride: 1, sched: sp})
	}
	// Each case runs on both memory paths: a one-SM grid issues in place
	// on the root sim's image, and SM 0 of a two-SM grid issues through
	// its copy-on-write fork. SM 0 gets a two-CTA wave either way.
	shapes := []struct {
		name      string
		grid, sms int
	}{
		{"root", 2, 1},
		{"fork", 4, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, shape := range shapes {
				t.Run(shape.name, func(t *testing.T) {
					cfg := simt.Config{
						Grid: shape.grid, CTASize: 2 * ir.WarpWidth, SMs: shape.sms, Workers: 1,
						Seed: 1, Strict: true,
					}
					if tc.sched != simt.SchedGreedyConverge {
						cfg.Sched = tc.sched
						cfg.SchedSeed = 7
						cfg.StarveLimit = 1 << 30
					}
					if tc.events != nil {
						cfg.Events = tc.events()
					}
					if cfg.SampleStride = tc.stride; tc.stride > 0 {
						cfg.Samples = &obs.OccupancyStats{}
					}
					h, err := simt.NewHandWave(mod, cfg)
					if err != nil {
						t.Fatal(err)
					}
					stepOnce := func() {
						progress, err := h.Step()
						if err != nil {
							t.Fatal(err)
						}
						if !progress {
							t.Fatal("wave retired during measurement; extend the loop bound")
						}
					}
					for i := 0; i < 2000; i++ {
						stepOnce()
					}
					if avg := testing.AllocsPerRun(500, stepOnce); avg != 0 {
						t.Fatalf("steady-state allocations per issue pass = %v, want 0", avg)
					}
				})
			}
		})
	}
}
