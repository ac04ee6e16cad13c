package simt_test

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
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

// captureRun runs one launch and captures the full observable surface:
// result plus the delivered event and sample streams.
func captureRun(t *testing.T, run func(simt.Config) (*simt.Result, error), cfg simt.Config) (*simt.Result, []simt.Event, []simt.Sample) {
	t.Helper()
	var events []simt.Event
	var samples []simt.Sample
	cfg.Events = simt.SinkFunc(func(ev simt.Event) { events = append(events, ev) })
	cfg.Samples = simt.SampleSinkFunc(func(s simt.Sample) { samples = append(samples, s) })
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, events, samples
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
// on the warp schedule. Each SM count runs three launches into one kept
// arena, sharded over as many workers as SMs. The
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
		arena := new(simt.Arena)
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
			res, err := arena.Run(mod, cfg)
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

// TestMachineMatchesFreshRun pins what a Machine is: Run bound to its
// module. Consecutive Machine.Run launches with different seeds and
// memory images each produce exactly the result — metrics, memory,
// shared segments, event and sample streams — of a simt.Run under the
// same config; one flat Machine also changes its per-launch wave shape
// (InterleaveWarps off, on, off under the greedy scheduler, then
// oldest-first), and a Machine is bound to no launch shape: one changes
// its CTA size, so its CTAs' shared segments hold other values. The
// Result of each case's first launch is kept, and the launches after it
// must leave it equal to a launch in new storage. The "profile" case
// loops a memory-loaded trip count, so every launch has another
// block-visit profile than the kept one.
func TestMachineMatchesFreshRun(t *testing.T) {
	cowMod, err := ir.Parse(cowTestKernel)
	if err != nil {
		t.Fatal(err)
	}
	reduceMod, err := ir.Parse(reduceKernel)
	if err != nil {
		t.Fatal(err)
	}
	loopMod, err := ir.Parse(loopKernel)
	if err != nil {
		t.Fatal(err)
	}
	same := func(*simt.Config) {}
	interleave := func(c *simt.Config) { c.InterleaveWarps = true }
	oldest := func(c *simt.Config) { c.Sched = simt.SchedOldestFirst }
	narrow := func(c *simt.Config) { c.CTASize = 32 }
	thrice := []func(*simt.Config){same, same, same}
	cases := []struct {
		name     string
		mod      *ir.Module
		base     simt.Config
		launches []func(*simt.Config)
	}{
		{"flat", cowMod, simt.Config{Threads: 96}, thrice},
		{"flat-waves", cowMod, simt.Config{Threads: 96, SampleStride: 16}, []func(*simt.Config){same, interleave, same, oldest}},
		{"grid", cowMod, simt.Config{Grid: 8, CTASize: 64, SMs: 4, Workers: 2}, thrice},
		{"grid-one-sm", cowMod, simt.Config{Grid: 8, CTASize: 64, SampleStride: 16}, thrice},
		{"grid-shared", reduceMod, simt.Config{Grid: 4, CTASize: 48, SMs: 2, Memory: make([]uint64, 256)}, thrice},
		{"grid-shared-stack", reduceMod, simt.Config{Grid: 4, CTASize: 48, SMs: 2, Memory: make([]uint64, 256), Model: simt.ModelStack}, thrice},
		{"shared-reshaped", reduceMod, simt.Config{Grid: 4, CTASize: 48}, []func(*simt.Config){same, narrow, same}},
		{"profile", loopMod, simt.Config{Grid: 2, CTASize: ir.WarpWidth, SMs: 2}, thrice},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			machine, err := simt.NewMachine(tc.mod, tc.base)
			if err != nil {
				t.Fatal(err)
			}
			var kept, keptWant *simt.Result
			for launch, vary := range tc.launches {
				cfg := tc.base
				vary(&cfg)
				cfg.Seed = uint64(100 + launch)
				mem := make([]uint64, 256)
				for i := range mem {
					mem[i] = uint64((launch+1)*1000 + i)
				}
				cfg.Memory = mem
				runRes, runEvents, runSamples := captureRun(t, func(c simt.Config) (*simt.Result, error) {
					return simt.Run(tc.mod, c)
				}, cfg)
				machRes, machEvents, machSamples := captureRun(t, machine.Run, cfg)
				if launch == 0 {
					kept = machRes
					if keptWant, err = simt.RunFresh(tc.mod, cfg); err != nil {
						t.Fatal(err)
					}
				} else if !reflect.DeepEqual(kept.Metrics, keptWant.Metrics) || !reflect.DeepEqual(kept.Memory, keptWant.Memory) ||
					!reflect.DeepEqual(kept.Shared, keptWant.Shared) {
					t.Errorf("launch %d rewrote the first launch's kept Result", launch)
				}
				if !reflect.DeepEqual(machRes.Metrics, runRes.Metrics) {
					t.Errorf("launch %d: metrics diverge:\n  Run:     %+v\n  machine: %+v",
						launch, runRes.Metrics, machRes.Metrics)
				}
				if !reflect.DeepEqual(machRes.Memory, runRes.Memory) {
					t.Errorf("launch %d: final memory diverges from Run", launch)
				}
				if !reflect.DeepEqual(machRes.Shared, runRes.Shared) {
					t.Errorf("launch %d: shared segments diverge from Run", launch)
				}
				if !reflect.DeepEqual(machEvents, runEvents) {
					t.Errorf("launch %d: event streams diverge (%d Run vs %d machine events)",
						launch, len(runEvents), len(machEvents))
				}
				if !reflect.DeepEqual(machSamples, runSamples) {
					t.Errorf("launch %d: sample streams diverge (%d Run vs %d machine samples)",
						launch, len(runSamples), len(machSamples))
				}
			}
		})
	}
}

// loopKernel loops a memory-loaded trip count, so launches with
// different memory images have different block-visit profiles.
const loopKernel = `module looptest memwords=8
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

// shapeKernel is a kernel whose register files, barrier count and shared
// segment are its parameters. It reads its highest integer and float
// registers and its shared words before it writes them, so a launch that
// inherits dirty storage from the one before shows it in its result.
func shapeKernel(nregs, nfregs, bar, shared int) string {
	sts := ""
	if shared > 0 {
		sts = "  ctatid r3\n  lds r4, [r3]\n  add r4, r4, r0\n  sts [r3], r4\n"
	}
	return fmt.Sprintf(`module shape memwords=256 sharedwords=%[4]d
func @k nregs=%[1]d nfregs=%[2]d {
entry:
  tid r0
  add r%[5]d, r%[5]d, r0
  fadd f%[6]d, f%[6]d, #1.5
  and r1, r0, #3
  join b%[3]d
  cbr r1, odd, even
odd:
  add r%[5]d, r%[5]d, #7
  br merge
even:
  fadd f%[6]d, f%[6]d, #2.0
  br merge
merge:
  wait b%[3]d
%[7]s  st [r0], r%[5]d
  ftoi r2, f%[6]d
  st [r0+128], r2
  exit
}
`, nregs, nfregs, bar, shared, nregs-1, nfregs-1, sts)
}

// TestRecycledRunMatchesFresh holds Run's arena recycling to a launch in
// new storage: one goroutine calls Run over a shuffled sequence of
// modules × launch shapes, so consecutive launches load into an arena
// whose last launch had another register count, float-register count,
// barrier count, shared segment (none or another size), divergence model,
// cache geometry, Grid/SMs/Workers shape or sinks — and one shape fails
// on its issue budget. Each launch must equal RunFresh in metrics, memory,
// shared segments, error, events, profile and samples.
func TestRecycledRunMatchesFresh(t *testing.T) {
	var mods []*ir.Module
	for _, src := range []string{
		shapeKernel(6, 1, 0, 0), shapeKernel(24, 6, 5, 96), shapeKernel(9, 3, 15, 128),
		cowTestKernel, simt.RandomControlFlowKernel,
	} {
		m, err := ir.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	cfgs := []simt.Config{
		{Threads: 64},
		{Threads: 64, InterleaveWarps: true, Model: simt.ModelStack},
		{Threads: 96, Cache: simt.CacheConfig{Sets: 32, Ways: 8}},
		{Grid: 4, CTASize: 32},
		{Grid: 4, CTASize: 32, SMs: 2, Workers: 2, Cache: simt.CacheConfig{Sets: 64, Ways: 2, LineWords: 8}},
		{Grid: 2, CTASize: 64, SMs: 2, Model: simt.ModelStack, Sched: simt.SchedOldestFirst},
		{Threads: 64, MaxIssues: 3},
	}
	type launch struct {
		mod   int
		cfg   simt.Config
		sinks bool
	}
	var seq []launch
	for mi := range mods {
		for ci, cfg := range cfgs {
			cfg.Seed = uint64(10*mi + ci)
			seq = append(seq, launch{mi, cfg, false})
			cfg.SampleStride = 8
			seq = append(seq, launch{mi, cfg, true})
		}
	}
	r := rng.New(30)
	for i := len(seq) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		seq[i], seq[j] = seq[j], seq[i]
	}
	failed := 0
	for i, l := range seq {
		// observeGrid attaches its sinks to every launch; a sink-less one
		// drops them again.
		via := func(run func(*ir.Module, simt.Config) (*simt.Result, error)) func(simt.Config) (*simt.Result, error) {
			return func(cfg simt.Config) (*simt.Result, error) {
				if !l.sinks {
					cfg.Events, cfg.Samples = nil, nil
				}
				return run(mods[l.mod], cfg)
			}
		}
		want := observeGrid(t, mods[l.mod], l.cfg, via(simt.RunFresh))
		sameGridRun(t, fmt.Sprintf("launch %d (module %d, %+v, sinks %v)", i, l.mod, l.cfg, l.sinks),
			observeGrid(t, mods[l.mod], l.cfg, via(simt.Run)), want)
		if want.err != "" {
			failed++
		}
	}
	if failed != 2*len(mods) {
		t.Errorf("%d launches failed, want the %d budget-limited ones", failed, 2*len(mods))
	}
}

// ownedKernel is a flat shared-memory kernel of two functions whose
// call sits in divergent code, so its block-visit profile has entries in
// both functions' blocks.
const ownedKernel = `module owned memwords=64 sharedwords=32
func @k nregs=4 nfregs=0 {
entry:
  tid r0
  add r2, r0, #100
  sts [r0], r2
  and r1, r0, #1
  cbr r1, odd, even
odd:
  call @bump
  br out
even:
  br out
out:
  st [r0], r1
  exit
}
func @bump nregs=4 nfregs=0 {
e:
  add r1, r1, #40
  ret
}
`

// TestRunResultOwnsItsBuffers pins what a Result owns: after a flat
// launch with a shared segment, two Runs of other modules — one with a
// single-block layout, one with a smaller shared segment its CTA fits in
// — load into the retired arena, and the kept Result's memory, shared
// segment, block-visit profile and op-class breakdown must not move.
func TestRunResultOwnsItsBuffers(t *testing.T) {
	var mods []*ir.Module
	for _, src := range []string{ownedKernel, cowTestKernel, shapeKernel(5, 1, 0, 16)} {
		m, err := ir.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	kept, err := simt.Run(mods[0], simt.Config{Threads: 32})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func() (mem, shared []uint64, visits []int64, classes map[string]int64) {
		for fi, f := range mods[0].Funcs {
			for bi := range f.Blocks {
				visits = append(visits, kept.Metrics.BlockVisits(fi, bi))
			}
		}
		return slices.Clone(kept.Memory), slices.Clone(kept.Shared[0]), visits, maps.Clone(kept.Metrics.OpClassIssues)
	}
	mem, shared, visits, classes := snapshot()
	if visits[len(visits)-1] == 0 {
		t.Fatal("the kept launch never entered @bump")
	}
	for _, m := range mods[1:] {
		if _, err := simt.Run(m, simt.Config{Threads: 16, Seed: 9}); err != nil {
			t.Fatal(err)
		}
		m2, s2, v2, c2 := snapshot()
		if !slices.Equal(m2, mem) || !slices.Equal(s2, shared) {
			t.Errorf("a Run of %s rewrote the kept Result's memory or shared segment", m.Name)
		}
		if !slices.Equal(v2, visits) || !maps.Equal(c2, classes) {
			t.Errorf("a Run of %s rewrote the kept Result's profile: visits %v -> %v, classes %v -> %v", m.Name, visits, v2, classes, c2)
		}
	}
}

// TestRunConcurrentModules runs four modules from four goroutines at once,
// each Run over whatever arena the pool hands it, and holds each launch to
// its module's fresh result (and, under -race, the arenas to never being
// shared between two live launches).
func TestRunConcurrentModules(t *testing.T) {
	srcs := []string{shapeKernel(6, 1, 0, 0), shapeKernel(24, 6, 5, 96), cowTestKernel, simt.RandomControlFlowKernel}
	cfg := simt.Config{Grid: 2, CTASize: 64, Seed: 4}
	errs := make(chan error, len(srcs))
	for _, src := range srcs {
		m, err := ir.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := simt.RunFresh(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for i := 0; i < 20; i++ {
				got, err := simt.Run(m, cfg)
				if err == nil && (!reflect.DeepEqual(got.Metrics, want.Metrics) ||
					!slices.Equal(got.Memory, want.Memory) || !reflect.DeepEqual(got.Shared, want.Shared)) {
					err = fmt.Errorf("launch %d of %s diverges from its fresh run", i, m.Name)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for range srcs {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
