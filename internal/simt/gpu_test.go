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
	res, err := simt.Run(mod, simt.Config{Grid: grid, CTASize: ctaSize, SMs: 2, Seed: 1})
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
	if len(res.PerSM) != 2 {
		t.Fatalf("len(PerSM) = %d, want 2", len(res.PerSM))
	}
	if got := res.PerSM[0].CTAs + res.PerSM[1].CTAs; got != grid {
		t.Errorf("per-SM CTA counts sum to %d, want %d", got, grid)
	}
	if want := res.PerSM[0].Cycles + res.PerSM[1].Cycles; m.TotalSMCycles != want {
		t.Errorf("TotalSMCycles = %d, want %d", m.TotalSMCycles, want)
	}
}

// gridRun is everything one observed grid launch produced: the result
// (nil on error; a Machine's is valid until its next launch) and error
// text, the full event stream as delivered to
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
// fresh simt.Run or a Machine relaunch) and gathers the outcome.
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

// sameGridRun reports every way got differs from the serial run.
func sameGridRun(t *testing.T, label string, got, serial gridRun) {
	t.Helper()
	if got.err != serial.err {
		t.Errorf("%s: error diverges from serial:\n  serial:  %q\n  got:     %q", label, serial.err, got.err)
	}
	if !reflect.DeepEqual(got.samples, serial.samples) {
		t.Errorf("%s: occupancy samples diverge from serial (%d vs %d samples)",
			label, len(got.samples), len(serial.samples))
	}
	if !reflect.DeepEqual(got.events, serial.events) {
		t.Errorf("%s: event stream diverges from serial (%d vs %d events)",
			label, len(got.events), len(serial.events))
	}
	if !bytes.Equal(got.prof, serial.prof) {
		t.Errorf("%s: rendered profile diverges from serial", label)
	}
	if (got.res == nil) != (serial.res == nil) {
		t.Fatalf("%s: result present = %v, serial = %v", label, got.res != nil, serial.res != nil)
	}
	if got.res == nil {
		return
	}
	if !reflect.DeepEqual(got.res.Metrics, serial.res.Metrics) {
		t.Errorf("%s: metrics diverge from serial:\n  serial:  %+v\n  got:     %+v",
			label, serial.res.Metrics, got.res.Metrics)
	}
	if !reflect.DeepEqual(got.res.Memory, serial.res.Memory) {
		t.Errorf("%s: final memory diverges from serial", label)
	}
	if !reflect.DeepEqual(got.res.Shared, serial.res.Shared) {
		t.Errorf("%s: shared segments diverge from serial", label)
	}
	if !reflect.DeepEqual(got.res.PerSM, serial.res.PerSM) {
		t.Errorf("%s: per-SM metrics diverge from serial", label)
	}
}

// TestGridShardingDeterministic pins the sharding contract: a grid run
// over several worker goroutines is byte-identical — metrics, final
// memory, shared segments, per-SM metrics, the delivered event stream,
// the rendered profile and the occupancy sample stream — to the serial
// run. The serial run delivers events and samples in place and the
// sharded ones from per-SM replay buffers, so this is also what holds
// the two delivery paths equal: on a launch that completes, on one that
// fails (SM 0 runs out of issues while SMs 1-3 finish: observers must
// still get SM 0's stream up to the error and the other SMs' whole), and
// on a Machine relaunched under changing worker counts, whose pooled
// replay buffers from a sharded launch must not leak into a serial one.
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
	probe, err := simt.Run(mod, failing)
	if err != nil {
		t.Fatal(err)
	}
	failing.MaxIssues = (probe.PerSM[0].Issues + probe.PerSM[1].Issues) / 2

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
			mc, err := simt.NewMachine(mod, shape.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, workers := range []int{2, 1, 4, 1} {
				cfg := shape.cfg
				cfg.Workers = workers
				sameGridRun(t, fmt.Sprintf("machine launch %d, workers=%d", i, workers), observeGrid(t, mod, cfg, mc.Run), serial)
			}
		})
	}
}

// TestGridDegenerateMatchesFlat pins what it means that every launch
// shape is waves through one loop: a 1-CTA/1-SM grid produces the same
// metrics, memory and event stream as the flat launch that makes the
// same waves of the same warps — one warp either way, and four warps as
// one InterleaveWarps wave against one 128-thread CTA.
func TestGridDegenerateMatchesFlat(t *testing.T) {
	mod, err := ir.Parse(simt.AllocTestKernel)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg simt.Config) (*simt.Result, []simt.Event) {
		var events []simt.Event
		cfg.Seed = 3
		cfg.MaxIssues = 20000
		cfg.Events = simt.SinkFunc(func(ev simt.Event) { events = append(events, ev) })
		res, err := simt.Run(mod, cfg)
		var be *simt.BudgetError
		if err != nil && !errors.As(err, &be) {
			t.Fatal(err)
		}
		return res, events
	}
	for _, tc := range []struct {
		name       string
		flat, grid simt.Config
	}{
		{"one warp", simt.Config{Threads: ir.WarpWidth}, simt.Config{Grid: 1, CTASize: ir.WarpWidth, SMs: 1}},
		{"four warps", simt.Config{Threads: 4 * ir.WarpWidth, InterleaveWarps: true}, simt.Config{Grid: 1, CTASize: 4 * ir.WarpWidth}},
	} {
		flatRes, flatEvents := run(tc.flat)
		gridRes, gridEvents := run(tc.grid)
		if flatRes != nil && gridRes != nil {
			if flatRes.Metrics.Issues != gridRes.Metrics.Issues ||
				flatRes.Metrics.Cycles != gridRes.Metrics.Cycles {
				t.Errorf("%s: issue/cycle counts diverge: flat %d/%d, grid %d/%d", tc.name,
					flatRes.Metrics.Issues, flatRes.Metrics.Cycles,
					gridRes.Metrics.Issues, gridRes.Metrics.Cycles)
			}
			if !reflect.DeepEqual(flatRes.Memory, gridRes.Memory) {
				t.Errorf("%s: final memory diverges between flat and degenerate grid", tc.name)
			}
		}
		if !reflect.DeepEqual(flatEvents, gridEvents) {
			t.Errorf("%s: event streams diverge: flat %d events, grid %d events",
				tc.name, len(flatEvents), len(gridEvents))
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
// budget.
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
	_, err = simt.Run(mod, simt.Config{
		Grid: 1, CTASize: ir.WarpWidth, SMs: 1, Seed: 1, MaxIssues: 100,
	})
	var be *simt.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error is %T (%v), want BudgetError", err, err)
	}
	if be.SM != 0 || be.CTA != 0 {
		t.Errorf("BudgetError placement = sm%d cta%d, want sm0 cta0", be.SM, be.CTA)
	}
	if !strings.Contains(err.Error(), "sm0 cta0") {
		t.Errorf("message %q missing sm0 cta0", err.Error())
	}
}

// TestGridConfigValidation pins the launch-shape error surface.
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
