package simt_test

import (
	"reflect"
	"testing"

	"specrecon/internal/ir"
	"specrecon/internal/simt"
)

// cowTestKernel exercises every global-memory shape the CoW fork and the
// launch arena must preserve: scattered stores spanning many 4 KiB
// pages, loads back through the private view, integer and float atomics,
// a cross-CTA conflict word every thread writes, and a per-thread RNG
// value so the output depends on the launch seed.
const cowTestKernel = `module cowtest memwords=4096
func @k nregs=8 nfregs=2 {
entry:
  tid r0
  ctaid r1
  mul r2, r0, #67
  and r2, r2, #4095
  rand r7
  and r7, r7, #65535
  add r7, r7, r0
  st [r2], r7
  const r3, #0
  st [r3], r1
  const r4, #1
  atomadd r5, [r3+1], r4
  fconst f0, #1.5
  fatomadd f1, [r3+2], f0
  ld r6, [r2]
  st [r3+3], r6
  exit
}
`

// runOnceFn runs one launch and captures the full observable surface:
// result plus the replayed event stream.
func captureRun(t *testing.T, run func(simt.Config) (*simt.Result, error), cfg simt.Config) (*simt.Result, []simt.Event) {
	t.Helper()
	var events []simt.Event
	cfg.Events = simt.SinkFunc(func(ev simt.Event) { events = append(events, ev) })
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, events
}

// TestCoWMatchesFullCopySM pins the copy-on-write SM fork bit-for-bit
// against the reference full-copy fork: across 1/4/8 SMs (sharded over
// worker goroutines, so -race covers the concurrent page faults), the
// merged memory, metrics — including CrossSMConflicts — per-SM metrics
// and event streams are identical.
func TestCoWMatchesFullCopySM(t *testing.T) {
	mod, err := ir.Parse(cowTestKernel)
	if err != nil {
		t.Fatal(err)
	}
	initial := make([]uint64, 4096)
	for i := range initial {
		initial[i] = uint64(i) * 2654435761
	}
	for _, sms := range []int{1, 4, 8} {
		cfg := simt.Config{
			Grid: 16, CTASize: 64, SMs: sms, Workers: sms,
			Seed: 11, Memory: initial,
		}
		cowRes, cowEvents := captureRun(t, func(c simt.Config) (*simt.Result, error) {
			return simt.Run(mod, c)
		}, cfg)
		fullRes, fullEvents := captureRun(t, func(c simt.Config) (*simt.Result, error) {
			return simt.Run(mod, simt.WithFullCopySM(c))
		}, cfg)
		if !reflect.DeepEqual(cowRes.Metrics, fullRes.Metrics) {
			t.Errorf("SMs=%d: metrics diverge:\n  cow:  %+v\n  full: %+v", sms, cowRes.Metrics, fullRes.Metrics)
		}
		if !reflect.DeepEqual(cowRes.Memory, fullRes.Memory) {
			t.Errorf("SMs=%d: final memory diverges between CoW and full-copy forks", sms)
		}
		if !reflect.DeepEqual(cowRes.PerSM, fullRes.PerSM) {
			t.Errorf("SMs=%d: per-SM metrics diverge", sms)
		}
		if !reflect.DeepEqual(cowEvents, fullEvents) {
			t.Errorf("SMs=%d: event streams diverge (%d vs %d events)", sms, len(cowEvents), len(fullEvents))
		}
		if sms > 1 && cowRes.Metrics.CrossSMConflicts == 0 {
			t.Errorf("SMs=%d: kernel produced no cross-SM conflicts; the conflict path went untested", sms)
		}
	}
}

// TestMachineMatchesFreshRun pins the launch-arena contract: three
// consecutive Machine.Run launches with different seeds and memory
// images each produce exactly the result — metrics, memory, shared
// segments, per-SM metrics and event stream — of a fresh simt.Run under
// the same config.
func TestMachineMatchesFreshRun(t *testing.T) {
	cowMod, err := ir.Parse(cowTestKernel)
	if err != nil {
		t.Fatal(err)
	}
	reduceMod, err := ir.Parse(reduceKernel)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mod  *ir.Module
		base simt.Config
	}{
		{"flat", cowMod, simt.Config{Threads: 96}},
		{"grid", cowMod, simt.Config{Grid: 8, CTASize: 64, SMs: 4, Workers: 2}},
		{"grid-shared", reduceMod, simt.Config{Grid: 4, CTASize: 48, SMs: 2, MemWords: 256}},
		{"grid-shared-stack", reduceMod, simt.Config{Grid: 4, CTASize: 48, SMs: 2, MemWords: 256, Model: simt.ModelStack}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			machine, err := simt.NewMachine(tc.mod, tc.base)
			if err != nil {
				t.Fatal(err)
			}
			for launch := 0; launch < 3; launch++ {
				cfg := tc.base
				cfg.Seed = uint64(100 + launch)
				mem := make([]uint64, 256)
				for i := range mem {
					mem[i] = uint64(launch*1000 + i)
				}
				cfg.Memory = mem
				freshRes, freshEvents := captureRun(t, func(c simt.Config) (*simt.Result, error) {
					return simt.Run(tc.mod, c)
				}, cfg)
				machRes, machEvents := captureRun(t, machine.Run, cfg)
				if !reflect.DeepEqual(machRes.Metrics, freshRes.Metrics) {
					t.Errorf("launch %d: metrics diverge:\n  fresh:   %+v\n  machine: %+v",
						launch, freshRes.Metrics, machRes.Metrics)
				}
				if !reflect.DeepEqual(machRes.Memory, freshRes.Memory) {
					t.Errorf("launch %d: final memory diverges from fresh run", launch)
				}
				if !reflect.DeepEqual(machRes.Shared, freshRes.Shared) {
					t.Errorf("launch %d: shared segments diverge from fresh run", launch)
				}
				if !reflect.DeepEqual(machRes.PerSM, freshRes.PerSM) {
					t.Errorf("launch %d: per-SM metrics diverge from fresh run", launch)
				}
				if !reflect.DeepEqual(machEvents, freshEvents) {
					t.Errorf("launch %d: event streams diverge (%d fresh vs %d machine events)",
						launch, len(freshEvents), len(machEvents))
				}
			}
		})
	}
}

// TestMachineRejectsShapeChange pins Run's compatibility check: a
// Machine refuses configs that change the launch shape it was built
// for, instead of silently rebuilding its arena.
func TestMachineRejectsShapeChange(t *testing.T) {
	mod, err := ir.Parse(cowTestKernel)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := simt.NewMachine(mod, simt.Config{Grid: 4, CTASize: 64, SMs: 2})
	if err != nil {
		t.Fatal(err)
	}
	bad := []simt.Config{
		{Grid: 8, CTASize: 64, SMs: 2},                 // grid size
		{Grid: 4, CTASize: 32, SMs: 2},                 // CTA size
		{Grid: 4, CTASize: 64, SMs: 4},                 // SM count
		{Threads: 96},                                  // flat vs grid
		{Grid: 4, CTASize: 64, SMs: 2, MemWords: 8192}, // memory image size
	}
	for i, cfg := range bad {
		if _, err := machine.Run(cfg); err == nil {
			t.Errorf("config %d: shape-changing Run succeeded, want error", i)
		}
	}
	// And the good shape still runs after the rejections.
	if _, err := machine.Run(simt.Config{Grid: 4, CTASize: 64, SMs: 2, Seed: 5}); err != nil {
		t.Errorf("shape-compatible Run failed after rejections: %v", err)
	}
}

// isolationKernel loops a memory-loaded trip count, so two launches of
// the same Machine with different Memory images produce different
// block-visit profiles — which is what makes profile-map aliasing
// between an escaped Result and the reused arena observable.
const isolationKernel = `module isoltest memwords=8
func @k nregs=8 nfregs=0 {
entry:
  const r0, #0
  ld r1, [r0]
  const r2, #0
  br loop
loop:
  setlt r3, r2, r1
  cbr r3, body, done
body:
  add r2, r2, #1
  br loop
done:
  exit
}
`

// TestMachineRelaunchResultIsolation pins the detach guard on the fork
// path: a Result returned by one launch owns its profile maps, so a
// later relaunch of the same Machine — whose arena resets the hot-path
// accumulators in place and re-merges fresh counts — must not mutate
// the escaped Result's block-visit profile or op-class breakdown, and
// re-finalizing across launches must not double-count.
func TestMachineRelaunchResultIsolation(t *testing.T) {
	mod, err := ir.Parse(isolationKernel)
	if err != nil {
		t.Fatal(err)
	}
	body := mod.Funcs[0].BlockByName("body").Index
	cfg := simt.Config{Grid: 2, CTASize: ir.WarpWidth, SMs: 2, Seed: 1}
	cfg.Memory = []uint64{3}
	m, err := simt.NewMachine(mod, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := m.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	visits1 := res1.Metrics.BlockVisits(0, body)
	if visits1 == 0 {
		t.Fatal("first launch recorded no body-block visits")
	}
	classes1 := make(map[string]int64, len(res1.Metrics.OpClassIssues))
	for k, v := range res1.Metrics.OpClassIssues {
		classes1[k] = v
	}
	// A relaunch with triple the trip count rewrites the arena's
	// accumulators with different numbers. (Result.PerSM stays
	// arena-aliased by documented contract — valid until the next Run —
	// so only the launch-wide Metrics is asserted stable.)
	cfg2 := cfg
	cfg2.Memory = []uint64{9}
	res2, err := m.Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Metrics.BlockVisits(0, body) == visits1 {
		t.Fatal("second launch should visit the loop body a different number of times")
	}
	if got := res1.Metrics.BlockVisits(0, body); got != visits1 {
		t.Errorf("relaunch mutated first result's block visits: %d -> %d", visits1, got)
	}
	if !reflect.DeepEqual(res1.Metrics.OpClassIssues, classes1) {
		t.Errorf("relaunch mutated first result's op-class issues: %v -> %v",
			classes1, res1.Metrics.OpClassIssues)
	}
	// A third launch identical to the first reports the identical
	// profile — a double finalize anywhere on the reuse path would
	// double the op-class counts.
	res3, err := m.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res3.Metrics.OpClassIssues, classes1) {
		t.Errorf("repeat launch op-class issues diverge: %v vs %v",
			res3.Metrics.OpClassIssues, classes1)
	}
}
