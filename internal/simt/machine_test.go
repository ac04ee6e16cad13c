package simt_test

import (
	"fmt"
	"reflect"
	"testing"

	"specrecon/internal/ir"
	"specrecon/internal/rng"
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

// plainSM is the model the copy-on-write fork is held to: one SM's
// private full copy of the initial image plus a whole-image dirty bitmap.
type plainSM struct {
	mem   []uint64
	dirty []uint64
}

func (p *plainSM) store(a int, v uint64) {
	p.mem[a] = v
	p.dirty[a>>6] |= 1 << (a & 63)
}

// mergePlain folds the SMs' dirty words over final in SM order, each in
// ascending address order, counting a word an earlier SM left with a
// different value as a cross-SM conflict.
func mergePlain(final []uint64, sms []*plainSM) (conflicts int64) {
	written := make([]uint64, (len(final)+63)/64)
	for _, sm := range sms {
		for a := range final {
			if sm.dirty[a>>6]>>(a&63)&1 == 0 {
				continue
			}
			if written[a>>6]>>(a&63)&1 != 0 && final[a] != sm.mem[a] {
				conflicts++
			}
			final[a] = sm.mem[a]
			written[a>>6] |= 1 << (a & 63)
		}
	}
	return conflicts
}

// TestCoWMatchesPlainCopyModel is the property the copy-on-write SM
// memory must keep: for random store sets the merged image and the
// CrossSMConflicts count are those of the plain model above. Each thread
// stores cowStores table-driven (address, value) pairs, adds the last
// value to its last address atomically, then copies what the atomic read
// and a probe address — a near neighbour no other thread of
// its SM stores to, so often a word of a materialized page nobody wrote —
// into slots of its own. The addresses cluster around page
// boundaries and the partial last page, repeat within a thread, overlap
// between SMs (with equal and unequal values) and are disjoint elsewhere;
// within an SM one thread owns an address, so the outcome does not depend
// on the warp schedule. One Machine per SM count runs three launches, so
// pages come off the free list, sharded over as many workers as SMs. The
// order the merge visits SMs in shows in both compared results: the last
// writer's value stays, and a conflict is counted against the value the
// SM before left.
func TestCoWMatchesPlainCopyModel(t *testing.T) {
	const (
		grid, ctaSize = 8, 32
		threads       = grid * ctaSize
		cowStores     = 6
		addrTab       = 0
		valTab        = threads * cowStores
		chkTab        = 2 * threads * cowStores
		probeTab      = chkTab + threads
		probeChk      = probeTab + threads
		target        = probeChk + threads
		memWords      = target + 5*512 + 137 // the last page is partial
	)
	mod, err := ir.Parse(fmt.Sprintf(`module cowprop memwords=%d
func @k nregs=10 nfregs=0 {
entry:
  tid r0
  mul r1, r0, #%d
  const r2, #0
  br header
header:
  setlt r3, r2, #%d
  cbr r3, body, done
body:
  add r4, r1, r2
  ld r5, [r4+%d]
  ld r6, [r4+%d]
  st [r5], r6
  add r2, r2, #1
  br header
done:
  atomadd r7, [r5+0], r6
  st [r0+%d], r7
  ld r8, [r0+%d]
  ld r9, [r8+0]
  st [r0+%d], r9
  exit
}
`, memWords, cowStores, cowStores, addrTab, valTab, chkTab, probeTab, probeChk))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2020)
	var conflicts, launches int64
	for sms := 1; sms <= 4; sms++ {
		cfg := simt.Config{Grid: grid, CTASize: ctaSize, SMs: sms, Workers: sms, Memory: make([]uint64, memWords)}
		machine, err := simt.NewMachine(mod, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for launch := 0; launch < 3; launch++ {
			initial := make([]uint64, memWords)
			for i := target; i < memWords; i++ {
				initial[i] = uint64(r.Intn(4))
			}
			// Deal each SM's candidate addresses to its threads: an address
			// goes to the first thread of the SM that draws it.
			owner := make([]map[int]int, sms)
			for i := range owner {
				owner[i] = map[int]int{}
			}
			mine := make([][]int, threads)
			for tid := 0; tid < threads; tid++ {
				sm := tid / ctaSize % sms
				for len(mine[tid]) < 1+r.Intn(cowStores) {
					a := target + r.Intn(memWords-target)
					switch r.Intn(3) {
					case 0: // around a page boundary
						a = (a&^511 + 512) - 8 + r.Intn(16)
					case 1: // the partial last page
						a = memWords - 1 - r.Intn(137)
					}
					if a < target || a >= memWords {
						continue
					}
					if by, taken := owner[sm][a]; !taken || by == tid {
						owner[sm][a] = tid
						mine[tid] = append(mine[tid], a)
					}
				}
			}
			for tid := 0; tid < threads; tid++ {
				for i := 0; i < cowStores; i++ {
					initial[addrTab+tid*cowStores+i] = uint64(mine[tid][r.Intn(len(mine[tid]))])
					initial[valTab+tid*cowStores+i] = uint64(r.Intn(4))
				}
				probe := mine[tid][0]
				for d := 1; d < 16; d++ {
					if _, taken := owner[tid/ctaSize%sms][probe+d]; !taken && probe+d < memWords {
						probe += d
						break
					}
				}
				initial[probeTab+tid] = uint64(probe)
			}

			models := make([]*plainSM, sms)
			for i := range models {
				models[i] = &plainSM{mem: append([]uint64(nil), initial...), dirty: make([]uint64, (memWords+63)/64)}
			}
			for tid := 0; tid < threads; tid++ {
				p := models[tid/ctaSize%sms]
				last := 0
				for i := 0; i < cowStores; i++ {
					last = int(initial[addrTab+tid*cowStores+i])
					p.store(last, initial[valTab+tid*cowStores+i])
				}
				old := p.mem[last]
				p.store(last, old+initial[valTab+tid*cowStores+cowStores-1])
				p.store(chkTab+tid, old)
				p.store(probeChk+tid, p.mem[initial[probeTab+tid]])
			}
			want := append([]uint64(nil), initial...)
			wantConflicts := mergePlain(want, models)

			cfg.Memory = initial
			res, err := machine.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.CrossSMConflicts != wantConflicts {
				t.Errorf("SMs=%d launch %d: %d cross-SM conflicts, the plain model counts %d", sms, launch, res.Metrics.CrossSMConflicts, wantConflicts)
			}
			for a := range want {
				if res.Memory[a] != want[a] {
					t.Fatalf("SMs=%d launch %d: word %d is %d, the plain model leaves %d", sms, launch, a, res.Memory[a], want[a])
				}
			}
			conflicts += wantConflicts
			launches++
		}
	}
	if conflicts == 0 {
		t.Fatalf("%d launches produced no cross-SM conflict; the conflict path went untested", launches)
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
		{"grid-shared", reduceMod, simt.Config{Grid: 4, CTASize: 48, SMs: 2, Memory: make([]uint64, 256)}},
		{"grid-shared-stack", reduceMod, simt.Config{Grid: 4, CTASize: 48, SMs: 2, Memory: make([]uint64, 256), Model: simt.ModelStack}},
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
		{Grid: 8, CTASize: 64, SMs: 2},                               // grid size
		{Grid: 4, CTASize: 32, SMs: 2},                               // CTA size
		{Grid: 4, CTASize: 64, SMs: 4},                               // SM count
		{Threads: 96},                                                // flat vs grid
		{Grid: 4, CTASize: 64, SMs: 2, Memory: make([]uint64, 8192)}, // memory image size
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
