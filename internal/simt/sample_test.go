package simt_test

import (
	"reflect"
	"testing"

	"specrecon/internal/ir"
	"specrecon/internal/simt"
)

// collectSamples runs the reduction grid with the buffered Samples path
// and returns the replayed stream.
func collectSamples(t *testing.T, cfg simt.Config) []simt.Sample {
	t.Helper()
	mod, err := ir.Parse(reduceKernel)
	if err != nil {
		t.Fatal(err)
	}
	var samples []simt.Sample
	cfg.Samples = simt.SampleSinkFunc(func(s simt.Sample) { samples = append(samples, s) })
	if _, err := simt.Run(mod, cfg); err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestSamplerGridBasics checks the sample stream's invariants on a
// sharded grid launch: SM-ordered replay, stride-respecting monotonic
// cycles per SM, and internally consistent warp classifications.
func TestSamplerGridBasics(t *testing.T) {
	const stride = 32
	samples := collectSamples(t, simt.Config{
		Grid: 8, CTASize: 2 * ir.WarpWidth, SMs: 4, Workers: 2,
		Seed: 7, SampleStride: stride,
	})
	if len(samples) == 0 {
		t.Fatal("no samples recorded")
	}
	seen := map[int32]int{}
	last := map[int32]int64{}
	prevSM := int32(0)
	for i, s := range samples {
		if s.SM < prevSM {
			t.Fatalf("sample %d: SM %d after SM %d — replay not SM-ordered", i, s.SM, prevSM)
		}
		prevSM = s.SM
		seen[s.SM]++
		if prev, ok := last[s.SM]; ok {
			if gap := s.Cycle - prev; gap < stride {
				t.Fatalf("sample %d: cycle gap %d < stride %d on sm %d", i, gap, stride, s.SM)
			}
			if s.CycleDelta != s.Cycle-prev {
				t.Fatalf("sample %d: CycleDelta %d, want %d", i, s.CycleDelta, s.Cycle-prev)
			}
		}
		last[s.SM] = s.Cycle
		if s.Eligible > s.Resident || s.Issued > s.Resident {
			t.Fatalf("sample %d: eligible %d / issued %d exceed resident %d",
				i, s.Eligible, s.Issued, s.Resident)
		}
		if sum := s.Eligible + s.StallBarrier + s.StallCTABar; sum > s.Resident {
			t.Fatalf("sample %d: classification sum %d exceeds resident %d", i, sum, s.Resident)
		}
		if s.MemStallCycles < 0 || s.CycleDelta < 0 {
			t.Fatalf("sample %d: negative window: %+v", i, s)
		}
	}
	for sm := int32(0); sm < 4; sm++ {
		if seen[sm] == 0 {
			t.Errorf("sm %d recorded no samples", sm)
		}
	}
}

// TestSamplerMemStallAttribution: the reduction kernel does real global
// and shared traffic, so the summed per-window mem-stall cycles must be
// positive — under either divergence model, whose issues are accounted by
// the same code.
func TestSamplerMemStallAttribution(t *testing.T) {
	for _, model := range bothModels {
		samples := collectSamples(t, simt.Config{
			Grid: 8, CTASize: 2 * ir.WarpWidth, SMs: 2, Seed: 7, SampleStride: 8, Model: model,
		})
		var mem int64
		for _, s := range samples {
			mem += s.MemStallCycles
		}
		if mem <= 0 {
			t.Errorf("%v: total mem-stall cycles = %d, want > 0", model, mem)
		}
	}
}

// ctabarWaitKernel makes each lane spin ctatid times before the
// workgroup barrier, so the CTA's first warp arrives many passes before
// its last and is observable parked at the ctabar between passes (in
// reduceKernel every warp reaches the barrier in the same pass and the
// release happens within it, so the wait is never sampled).
const ctabarWaitKernel = `module ctawait memwords=8 sharedwords=8
func @k nregs=8 nfregs=0 {
entry:
  ctatid r0
  const r1, #0
  br loop
loop:
  setlt r2, r1, r0
  cbr r2, body, after
body:
  add r1, r1, #1
  br loop
after:
  ctabar b0
  exit
}
`

// TestSamplerCTABarAttribution: warps parked at a workgroup barrier
// between passes must show up as ctabar-stalled warps.
func TestSamplerCTABarAttribution(t *testing.T) {
	mod, err := ir.Parse(ctabarWaitKernel)
	if err != nil {
		t.Fatal(err)
	}
	var samples []simt.Sample
	cfg := simt.Config{
		Grid: 2, CTASize: 2 * ir.WarpWidth, SMs: 1, Seed: 7, SampleStride: 4,
		Samples: simt.SampleSinkFunc(func(s simt.Sample) { samples = append(samples, s) }),
	}
	if _, err := simt.Run(mod, cfg); err != nil {
		t.Fatal(err)
	}
	var ctabar int64
	for _, s := range samples {
		ctabar += int64(s.StallCTABar)
	}
	if ctabar == 0 {
		t.Fatal("no ctabar-stalled warps sampled in a ctabar-heavy kernel")
	}
}

// TestSamplerDisabled: no stride means no samples, even with sinks set;
// a sink without a stride likewise stays silent.
func TestSamplerDisabled(t *testing.T) {
	samples := collectSamples(t, simt.Config{
		Grid: 2, CTASize: ir.WarpWidth, SMs: 1, Seed: 7, // SampleStride zero
	})
	if len(samples) != 0 {
		t.Fatalf("sampler with zero stride recorded %d samples", len(samples))
	}
	mod, err := ir.Parse(reduceKernel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simt.Run(mod, simt.Config{Grid: 2, CTASize: ir.WarpWidth, SMs: 1, SampleStride: -1}); err == nil {
		t.Fatal("negative stride accepted")
	}
}

// TestSamplerFlatInterleave: a flat InterleaveWarps launch samples as
// SM 0; a run-to-completion flat launch (waves of one warp) records
// nothing.
func TestSamplerFlatInterleave(t *testing.T) {
	mod, err := ir.Parse(simt.AllocTestKernel)
	if err != nil {
		t.Fatal(err)
	}
	run := func(interleave bool) []simt.Sample {
		var samples []simt.Sample
		cfg := simt.Config{
			Threads: 4 * ir.WarpWidth, Seed: 3, MaxIssues: 50000,
			InterleaveWarps: interleave, SampleStride: 8,
			Samples: simt.SampleSinkFunc(func(s simt.Sample) { samples = append(samples, s) }),
		}
		_, err := simt.Run(mod, cfg)
		if err == nil {
			t.Fatal("alloc kernel should exhaust the reduced budget")
		}
		return samples
	}
	inter := run(true)
	if len(inter) == 0 {
		t.Fatal("interleaved flat launch recorded no samples")
	}
	for i, s := range inter {
		if s.SM != 0 {
			t.Fatalf("sample %d on SM %d, want 0", i, s.SM)
		}
	}
	if seq := run(false); len(seq) != 0 {
		t.Fatalf("run-to-completion flat launch recorded %d samples, want 0", len(seq))
	}
}

// TestSamplerMachineReuse: a relaunch into a kept arena starts a fresh
// sampler window, so every launch yields the identical sample stream, and
// the sampler can be turned off per launch.
func TestSamplerMachineReuse(t *testing.T) {
	mod, err := ir.Parse(reduceKernel)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simt.Config{Grid: 8, CTASize: 2 * ir.WarpWidth, SMs: 2, Seed: 7}
	a := new(simt.Arena)
	var first []simt.Sample
	for launch := 0; launch < 3; launch++ {
		var samples []simt.Sample
		run := cfg
		run.SampleStride = 16
		run.Samples = simt.SampleSinkFunc(func(s simt.Sample) { samples = append(samples, s) })
		if _, err := a.Run(mod, run); err != nil {
			t.Fatal(err)
		}
		if launch == 0 {
			first = samples
			if len(first) == 0 {
				t.Fatal("no samples on first launch")
			}
			continue
		}
		if !reflect.DeepEqual(samples, first) {
			t.Fatalf("launch %d: sample stream diverges from first (%d vs %d)",
				launch, len(samples), len(first))
		}
	}
	// Sampler off on a later launch into the same arena: silence.
	var off []simt.Sample
	run := cfg
	run.Samples = simt.SampleSinkFunc(func(s simt.Sample) { off = append(off, s) })
	if _, err := a.Run(mod, run); err != nil {
		t.Fatal(err)
	}
	if len(off) != 0 {
		t.Fatalf("sampler-off relaunch recorded %d samples", len(off))
	}
}

// TestTeeSampleSinks: fan-out preserves order and skips nils.
func TestTeeSampleSinks(t *testing.T) {
	var a, b []int64
	sink := simt.TeeSampleSinks(
		nil,
		simt.SampleSinkFunc(func(s simt.Sample) { a = append(a, s.Cycle) }),
		simt.SampleSinkFunc(func(s simt.Sample) { b = append(b, s.Cycle) }),
	)
	sink.Sample(simt.Sample{Cycle: 1})
	sink.Sample(simt.Sample{Cycle: 2})
	if !reflect.DeepEqual(a, []int64{1, 2}) || !reflect.DeepEqual(b, a) {
		t.Fatalf("tee misdelivered: a=%v b=%v", a, b)
	}
	if simt.TeeSampleSinks(nil, nil) != nil {
		t.Fatal("all-nil tee should collapse to nil")
	}
	one := simt.SampleSinkFunc(func(simt.Sample) {})
	if got := simt.TeeSampleSinks(nil, one); got == nil {
		t.Fatal("single-sink tee collapsed to nil")
	}
}

// TestSamplerMatchesLaneScan runs the lane-status scan the sampler used
// to make of every resident warp beside every sample it now takes, on a
// multi-CTA kernel whose warps block at a ctabar and a soft barrier and
// retire at different times, under all five schedulers and both
// divergence models: the warp counts must be the scan's.
func TestSamplerMatchesLaneScan(t *testing.T) {
	mod := parseKernel(t, schedBlockKernel)
	for _, model := range []simt.Model{simt.ModelITS, simt.ModelStack} {
		for _, sp := range simt.SchedPolicies() {
			var got *simt.Sample
			h, err := simt.NewHandWave(mod, simt.Config{
				Grid: 4, CTASize: 2 * ir.WarpWidth, Seed: 5, Model: model, Sched: sp, SchedSeed: 3,
				SampleStride: 1, Samples: simt.SampleSinkFunc(func(s simt.Sample) { got = &s }),
			})
			if err != nil {
				t.Fatal(err)
			}
			samples, stalled := 0, 0
			for progress := true; progress; {
				got = nil
				if progress, err = h.Step(); err != nil {
					t.Fatal(err)
				}
				if got == nil {
					continue
				}
				samples++
				want := h.LaneScanSample()
				if got.Resident != want.Resident || got.Eligible != want.Eligible ||
					got.StallBarrier != want.StallBarrier || got.StallCTABar != want.StallCTABar {
					t.Fatalf("%v/%v sample %d at cycle %d: resident/eligible/barrier/ctabar %d/%d/%d/%d, the lane scan counts %d/%d/%d/%d",
						model, sp, samples, got.Cycle, got.Resident, got.Eligible, got.StallBarrier, got.StallCTABar,
						want.Resident, want.Eligible, want.StallBarrier, want.StallCTABar)
				}
				if got.Eligible < got.Resident {
					stalled++
				}
			}
			if samples == 0 || stalled == 0 {
				t.Fatalf("%v/%v: %d samples, %d with a stalled warp: both must occur", model, sp, samples, stalled)
			}
		}
	}
}
