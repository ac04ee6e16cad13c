package simt_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"specrecon/internal/ir"
	"specrecon/internal/obs"
	"specrecon/internal/simt"
)

// reduceKernel is a classic per-CTA shared-memory reduction: every lane
// publishes its global thread id into shared[ctatid], the CTA meets at a
// workgroup barrier, and lane 0 of the CTA sums the segment into
// global[ctaid].
const reduceKernel = `module reduce memwords=64 sharedwords=64
func @k nregs=8 nfregs=0 {
entry:
  ctatid r0
  tid r1
  sts [r0], r1
  ctabar b0
  setlt r2, r0, #1
  cbr r2, lead, done
lead:
  const r3, #0
  const r4, #0
  br loop
loop:
  ctasize r5
  setlt r6, r4, r5
  cbr r6, body, store
body:
  lds r7, [r4]
  add r3, r3, r7
  add r4, r4, #1
  br loop
store:
  ctaid r5
  st [r5], r3
  br done
done:
  exit
}
`

// TestGridSharedReduction runs the reduction over a multi-SM grid with a
// CTA size that is not a multiple of the warp width, so partial warps
// participate in the workgroup barrier.
func TestGridSharedReduction(t *testing.T) {
	mod, err := ir.Parse(reduceKernel)
	if err != nil {
		t.Fatal(err)
	}
	const grid, ctaSize = 4, 48
	// An SM's cycle count is the sum of its issues' costs, so the event
	// stream gives each SM's cycles without the merged metrics.
	var smCycles [2]int64
	issueCosts := simt.SinkFunc(func(ev simt.Event) {
		if ev.Kind == simt.EvIssue {
			smCycles[ev.SM] += ev.Cost
		}
	})
	res, err := simt.Run(mod, simt.Config{Grid: grid, CTASize: ctaSize, SMs: 2, Seed: 1, Events: issueCosts})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < grid; c++ {
		want := int64(0)
		for tid := c * ctaSize; tid < (c+1)*ctaSize; tid++ {
			want += int64(tid)
		}
		if got := int64(res.Memory[c]); got != want {
			t.Errorf("global[%d] = %d, want %d", c, got, want)
		}
	}
	if len(res.Shared) != grid {
		t.Fatalf("len(Shared) = %d, want %d", len(res.Shared), grid)
	}
	for c, seg := range res.Shared {
		if int64(seg[0]) != int64(c*ctaSize) {
			t.Errorf("shared[%d][0] = %d, want %d", c, seg[0], c*ctaSize)
		}
	}
	m := res.Metrics
	if m.CTAs != grid || m.SMs != 2 || m.Threads != grid*ctaSize {
		t.Errorf("merged shape = CTAs %d SMs %d Threads %d, want %d/2/%d",
			m.CTAs, m.SMs, m.Threads, grid, grid*ctaSize)
	}
	if m.CTABarSyncs != grid {
		t.Errorf("CTABarSyncs = %d, want %d (one ctabar per CTA)", m.CTABarSyncs, grid)
	}
	if m.SharedAccesses == 0 {
		t.Error("SharedAccesses = 0, want > 0")
	}
	if smCycles[0] == 0 || smCycles[1] == 0 {
		t.Errorf("SM cycles = %v, want both SMs busy", smCycles)
	}
	if m.TotalSMCycles != smCycles[0]+smCycles[1] || m.Cycles != max(smCycles[0], smCycles[1]) {
		t.Errorf("TotalSMCycles %d, Cycles %d; want the SMs' sum and max of %v", m.TotalSMCycles, m.Cycles, smCycles)
	}
}

// gridRun is everything one observed grid launch produced: the result
// (nil on error) and error text, the full event stream as delivered to
// Config.Events, a profile rendered from it, and the occupancy sample
// stream delivered to Config.Samples (telemetry on — the sampler must
// not perturb determinism).
type gridRun struct {
	res     *simt.Result
	err     string
	events  []simt.Event
	prof    []byte
	samples []simt.Sample
}

// observeGrid attaches fresh sinks to cfg, launches it through run (a
// simt.Run, or a relaunch into a kept arena) and gathers the outcome.
func observeGrid(t *testing.T, mod *ir.Module, cfg simt.Config, run func(simt.Config) (*simt.Result, error)) gridRun {
	t.Helper()
	var g gridRun
	prof := obs.NewProfile(mod)
	cfg.Events = simt.SinkFunc(func(ev simt.Event) {
		g.events = append(g.events, ev)
		prof.Event(&ev)
	})
	occ := obs.NewOccupancyRecorder()
	cfg.Samples = occ
	var err error
	if g.res, err = run(cfg); err != nil {
		g.err = err.Error()
	}
	var rendered bytes.Buffer
	if err := prof.WriteJSON(&rendered); err != nil {
		t.Fatal(err)
	}
	g.prof = rendered.Bytes()
	occ.Each(func(s *simt.Sample) { g.samples = append(g.samples, *s) })
	return g
}

// sameGridRun reports every way got differs from want, the reference run.
func sameGridRun(t *testing.T, label string, got, want gridRun) {
	t.Helper()
	if got.err != want.err {
		t.Errorf("%s: error diverges from the reference:\n  want:    %q\n  got:     %q", label, want.err, got.err)
	}
	if !reflect.DeepEqual(got.samples, want.samples) {
		t.Errorf("%s: occupancy samples diverge from the reference (%d vs %d samples)",
			label, len(got.samples), len(want.samples))
	}
	if !reflect.DeepEqual(got.events, want.events) {
		t.Errorf("%s: event stream diverges from the reference (%d vs %d events)",
			label, len(got.events), len(want.events))
	}
	if !bytes.Equal(got.prof, want.prof) {
		t.Errorf("%s: rendered profile diverges from the reference", label)
	}
	if (got.res == nil) != (want.res == nil) {
		t.Fatalf("%s: result present = %v, want = %v", label, got.res != nil, want.res != nil)
	}
	if got.res == nil {
		return
	}
	if !reflect.DeepEqual(got.res.Metrics, want.res.Metrics) {
		t.Errorf("%s: metrics diverge from the reference:\n  want:    %+v\n  got:     %+v",
			label, want.res.Metrics, got.res.Metrics)
	}
	if !reflect.DeepEqual(got.res.Memory, want.res.Memory) {
		t.Errorf("%s: final memory diverges from the reference", label)
	}
	if !reflect.DeepEqual(got.res.Shared, want.res.Shared) {
		t.Errorf("%s: shared segments diverge from the reference", label)
	}
}

// TestGridShardingDeterministic pins the sharding contract: a grid run
// over several worker goroutines is byte-identical — metrics, final
// memory, shared segments, the delivered event stream,
// the rendered profile and the occupancy sample stream — to the serial
// run. The serial run delivers events and samples in place and the
// sharded ones from per-SM replay buffers, so this is also what holds
// the two delivery paths equal: on a launch that completes, on one that
// fails (SM 0 runs out of issues while SMs 1-3 finish: observers must
// still get SM 0's stream up to the error and the other SMs' whole), and
// on relaunches into one kept arena under changing worker counts, where
// a sharded launch must leave nothing behind for a serial one.
func TestGridShardingDeterministic(t *testing.T) {
	mod, err := ir.Parse(reduceKernel)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(cfg simt.Config) (*simt.Result, error) { return simt.Run(mod, cfg) }
	complete := simt.Config{
		Grid: 8, CTASize: 2 * ir.WarpWidth, SMs: 4, Seed: 7, SampleStride: 16,
	}
	// Five CTAs over four SMs give SM 0 two CTAs' worth of issues and
	// the others one; a budget between the two fails SM 0 alone.
	failing := complete
	failing.Grid = 5
	one := failing
	one.Grid, one.SMs = 1, 1
	probe, err := simt.Run(mod, one)
	if err != nil {
		t.Fatal(err)
	}
	failing.MaxIssues = probe.Metrics.Issues * 3 / 2

	for _, shape := range []struct {
		name string
		cfg  simt.Config
	}{{"complete", complete}, {"failing", failing}} {
		t.Run(shape.name, func(t *testing.T) {
			serial := observeGrid(t, mod, shape.cfg, fresh)
			if len(serial.samples) == 0 {
				t.Fatal("sampler recorded nothing; lower the stride")
			}
			if failed := shape.cfg.MaxIssues > 0; failed != (serial.err != "") {
				t.Fatalf("serial run error = %q, want failure = %v", serial.err, failed)
			} else if failed {
				if !strings.Contains(serial.err, "sm0") {
					t.Fatalf("serial run failed with %q, want SM 0's budget error", serial.err)
				}
				var perSM [4]int
				for _, ev := range serial.events {
					perSM[ev.SM]++
				}
				if perSM[0] == 0 || perSM[1] == 0 || perSM[3] == 0 {
					t.Fatalf("events delivered per SM = %v, want the failed SM's prefix and the others' streams", perSM)
				}
			}
			for _, workers := range []int{2, 4} {
				cfg := shape.cfg
				cfg.Workers = workers
				sameGridRun(t, fmt.Sprintf("workers=%d", workers), observeGrid(t, mod, cfg, fresh), serial)
			}
			a := new(simt.Arena)
			relaunch := func(cfg simt.Config) (*simt.Result, error) { return a.Run(mod, cfg) }
			for i, workers := range []int{2, 1, 4, 1} {
				cfg := shape.cfg
				cfg.Workers = workers
				sameGridRun(t, fmt.Sprintf("arena launch %d, workers=%d", i, workers), observeGrid(t, mod, cfg, relaunch), serial)
			}
		})
	}
}

// TestGridDegenerateMatchesFlat pins what it means that a flat launch is
// CTA 0 on SM 0: a 1-CTA/1-SM grid produces the same result — metrics,
// memory and shared segments — and event stream as the flat launch that
// makes the same waves of the same warps (one warp either way; two warps
// as one InterleaveWarps wave, under either divergence model, or under a
// non-greedy Sched, against one 64-thread CTA), on a shared-memory
// reduction behind a ctabar and on divergent control flow with calls.
// Both run on the root sim in place, so a fresh launch of either
// allocates the same.
func TestGridDegenerateMatchesFlat(t *testing.T) {
	kernels := []struct{ name, src string }{{"reduce", reduceKernel}, {"control-flow", simt.RandomControlFlowKernel}}
	for _, tc := range []struct {
		name       string
		flat, grid simt.Config
	}{
		{"one warp", simt.Config{Threads: ir.WarpWidth}, simt.Config{Grid: 1, CTASize: ir.WarpWidth, SMs: 1}},
		{"two warps", simt.Config{Threads: 2 * ir.WarpWidth, InterleaveWarps: true}, simt.Config{Grid: 1, CTASize: 2 * ir.WarpWidth}},
		{"stack", simt.Config{Threads: 2 * ir.WarpWidth, InterleaveWarps: true, Model: simt.ModelStack},
			simt.Config{Grid: 1, CTASize: 2 * ir.WarpWidth, Model: simt.ModelStack}},
		{"oldest", simt.Config{Threads: 2 * ir.WarpWidth, Sched: simt.SchedOldestFirst},
			simt.Config{Grid: 1, CTASize: 2 * ir.WarpWidth, Sched: simt.SchedOldestFirst}},
	} {
		for _, k := range kernels {
			mod, err := ir.Parse(k.src)
			if err != nil {
				t.Fatal(err)
			}
			name := tc.name + "/" + k.name
			run := func(cfg simt.Config) (*simt.Result, []simt.Event) {
				var events []simt.Event
				cfg.Seed = 3
				cfg.Events = simt.SinkFunc(func(ev simt.Event) { events = append(events, ev) })
				res, err := simt.Run(mod, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return res, events
			}
			flatRes, flatEvents := run(tc.flat)
			gridRes, gridEvents := run(tc.grid)
			if !reflect.DeepEqual(flatRes.Metrics, gridRes.Metrics) {
				t.Errorf("%s: metrics diverge:\n  flat: %+v\n  grid: %+v", name, flatRes.Metrics, gridRes.Metrics)
			}
			if !reflect.DeepEqual(flatRes.Memory, gridRes.Memory) {
				t.Errorf("%s: final memory diverges between flat and degenerate grid", name)
			}
			if !reflect.DeepEqual(flatRes.Shared, gridRes.Shared) {
				t.Errorf("%s: shared segments diverge between flat and degenerate grid", name)
			}
			if !reflect.DeepEqual(flatEvents, gridEvents) {
				t.Errorf("%s: event streams diverge: flat %d events, grid %d events",
					name, len(flatEvents), len(gridEvents))
			}
			allocs := func(cfg simt.Config) float64 {
				return testing.AllocsPerRun(5, func() {
					if _, err := simt.RunFresh(mod, cfg); err != nil {
						t.Fatal(err)
					}
				})
			}
			if f, g := allocs(tc.flat), allocs(tc.grid); f != g {
				t.Errorf("%s: a fresh launch allocates %v objects flat, %v as a one-CTA grid", name, f, g)
			}
		}
	}
}

// TestCrossSMConflicts: two CTAs on two SMs store disagreeing values to
// the same global word; the merge counts the conflict and the
// higher-indexed SM's value wins (merge is in SM order).
func TestCrossSMConflicts(t *testing.T) {
	const src = `module conflict memwords=8
func @k nregs=4 nfregs=0 {
entry:
  ctaid r0
  add r1, r0, #100
  const r2, #0
  st [r2], r1
  exit
}
`
	mod, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simt.Run(mod, simt.Config{Grid: 2, CTASize: 1, SMs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CrossSMConflicts != 1 {
		t.Errorf("CrossSMConflicts = %d, want 1", res.Metrics.CrossSMConflicts)
	}
	if res.Memory[0] != 101 {
		t.Errorf("global[0] = %d, want 101 (SM 1 merges after SM 0)", res.Memory[0])
	}
}

// TestCTABarDeadlockDiagnostics: two halves of a CTA block on different
// workgroup barriers, so neither ever opens. The SM must report a
// deadlock (not spin), and the diagnostic must name the SM, the CTA and
// the ctabar-blocked lanes.
func TestCTABarDeadlockDiagnostics(t *testing.T) {
	const src = `module dl memwords=8 sharedwords=8
func @k nregs=4 nfregs=0 {
entry:
  ctatid r0
  setne r1, r0, #0
  cbr r1, most, zero
most:
  ctabar b0
  br done
zero:
  ctabar b1
  br done
done:
  exit
}
`
	mod, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = simt.Run(mod, simt.Config{Grid: 1, CTASize: ir.WarpWidth, SMs: 1, Seed: 1})
	if err == nil {
		t.Fatal("expected deadlock, launch succeeded")
	}
	var de *simt.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error is %T (%v), want DeadlockError", err, err)
	}
	if de.SM != 0 || de.CTA != 0 {
		t.Errorf("DeadlockError placement = sm%d cta%d, want sm0 cta0", de.SM, de.CTA)
	}
	msg := err.Error()
	for _, want := range []string{"sm0 cta0", "ctabar"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic %q missing %q", msg, want)
		}
	}
	ctabarLanes := 0
	for _, bl := range de.Lanes {
		if bl.CTABar {
			ctabarLanes++
		}
	}
	if ctabarLanes != ir.WarpWidth {
		t.Errorf("ctabar-blocked lanes in diagnostic = %d, want %d", ctabarLanes, ir.WarpWidth)
	}
}

// TestGridBudgetErrorCarriesSM: an infinite loop on a grid launch must
// surface a BudgetError stamped with the SM and CTA that exhausted its
// budget; the same loop on a flat launch names no SM or CTA.
func TestGridBudgetErrorCarriesSM(t *testing.T) {
	const src = `module spin memwords=8
func @k nregs=4 nfregs=0 {
entry:
  br entry
}
`
	mod, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		cfg     simt.Config
		prefix  string
		sm, cta int
		placed  bool
	}{
		{"grid", simt.Config{Grid: 1, CTASize: ir.WarpWidth, SMs: 1}, "simt: sm 0: warp 0: ", 0, 0, true},
		{"flat", simt.Config{Threads: ir.WarpWidth}, "simt: warp 0: ", -1, -1, false},
	} {
		cfg := tc.cfg
		cfg.Seed, cfg.MaxIssues = 1, 100
		_, err = simt.Run(mod, cfg)
		var be *simt.BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("%s: error is %T (%v), want BudgetError", tc.name, err, err)
		}
		if be.SM != tc.sm || be.CTA != tc.cta {
			t.Errorf("%s: BudgetError placement = sm %d cta %d, want %d/%d", tc.name, be.SM, be.CTA, tc.sm, tc.cta)
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, tc.prefix) {
			t.Errorf("%s: message %q does not start %q", tc.name, msg, tc.prefix)
		}
		if strings.Contains(msg, "sm0 cta0") != tc.placed {
			t.Errorf("%s: message %q: mentions sm0 cta0 = %v, want %v", tc.name, msg, !tc.placed, tc.placed)
		}
	}
}

// TestGridConfigValidation pins the launch-shape error surface, and a
// fault the launch's divergence model cannot fire.
func TestGridConfigValidation(t *testing.T) {
	mod, err := ir.Parse(reduceKernel)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  simt.Config
		want string
	}{
		{"interleave", simt.Config{Grid: 1, InterleaveWarps: true}, "InterleaveWarps"},
		{"cta too big", simt.Config{Grid: 1, CTASize: simt.MaxThreadsPerCTA + 1}, "CTA size"},
		{"too many sms", simt.Config{Grid: 1, SMs: simt.MaxSMs + 1}, "SM count"},
		{"skip-release under stack", simt.Config{Grid: 1, Model: simt.ModelStack, SkipReleaseN: 1}, "SkipReleaseN 1 under ModelStack"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := simt.Run(mod, tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}
