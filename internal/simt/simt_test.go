package simt

import (
	"math/bits"
	"strings"
	"testing"

	"specrecon/internal/ir"
)

// asm parses a module from assembly source, failing the test on error.
func asm(t testing.TB, src string) *ir.Module {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("asm: %v", err)
	}
	return m
}

// run executes the module's first function with the given config.
func run(t testing.TB, m *ir.Module, cfg Config) *Result {
	t.Helper()
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestStraightLine checks a trivial kernel: every lane stores its thread
// id; full efficiency.
func TestStraightLine(t *testing.T) {
	m := asm(t, `module t memwords=64
func @k nregs=1 nfregs=0 {
e:
  tid r0
  st [r0], r0
  exit
}
`)
	res := run(t, m, Config{Strict: true})
	for i := 0; i < 32; i++ {
		if res.Memory[i] != uint64(i) {
			t.Fatalf("mem[%d] = %d, want %d", i, res.Memory[i], i)
		}
	}
	if eff := res.Metrics.SIMTEfficiency(); eff != 1.0 {
		t.Errorf("straight-line efficiency = %f, want 1", eff)
	}
}

// TestBranchDivergenceSplitsGroups verifies a divergent branch reduces
// occupancy on each side.
func TestBranchDivergenceSplitsGroups(t *testing.T) {
	m := asm(t, `module t memwords=64
func @k nregs=3 nfregs=0 {
e:
  tid r0
  and r1, r0, #1
  cbr r1, odd, even
odd:
  const r2, #111
  st [r0], r2
  exit
even:
  const r2, #222
  st [r0], r2
  exit
}
`)
	res := run(t, m, Config{Strict: true})
	for i := 0; i < 32; i++ {
		want := uint64(222)
		if i%2 == 1 {
			want = 111
		}
		if res.Memory[i] != want {
			t.Fatalf("mem[%d] = %d, want %d", i, res.Memory[i], want)
		}
	}
	if eff := res.Metrics.SIMTEfficiency(); eff >= 1.0 || eff <= 0.4 {
		t.Errorf("divergent kernel efficiency = %f, want between 0.4 and 1", eff)
	}
}

// TestWaitPassThrough: a lane that never joined a barrier falls through
// its wait.
func TestWaitPassThrough(t *testing.T) {
	m := asm(t, `module t memwords=64
func @k nregs=2 nfregs=0 {
e:
  tid r0
  wait b0
  const r1, #1
  st [r0], r1
  exit
}
`)
	res := run(t, m, Config{Strict: true})
	if res.Memory[0] != 1 {
		t.Fatal("lane did not pass through an un-joined wait")
	}
}

// TestBarrierCollects: joined lanes block at the wait until all arrive,
// producing one converged group after it.
func TestBarrierCollects(t *testing.T) {
	m := asm(t, `module t memwords=128
func @k nregs=3 nfregs=0 {
e:
  tid r0
  join b0
  and r1, r0, #1
  cbr r1, slow, meet
slow:
  const r2, #0
  br loop
loop:
  add r2, r2, #1
  setlt r1, r2, #50
  cbr r1, loop, meet
meet:
  wait b0
  const r2, #7
  st [r0], r2
  exit
}
`)
	var storeMasks []uint32
	cfg := Config{Strict: true, Events: SinkFunc(func(ev Event) {
		if ev.Kind == EvIssue && ev.BlockName == "meet" && ev.Ins == 2 { // the store
			storeMasks = append(storeMasks, ev.Mask)
		}
	})}
	res := run(t, m, cfg)
	if len(storeMasks) != 1 || storeMasks[0] != 0xffffffff {
		t.Fatalf("store masks = %#x, want one full-warp issue", storeMasks)
	}
	for i := 0; i < 32; i++ {
		if res.Memory[i] != 7 {
			t.Fatalf("mem[%d] = %d", i, res.Memory[i])
		}
	}
}

// TestCancelReleasesWaiters: lanes that leave via cancel unblock the rest.
func TestCancelReleasesWaiters(t *testing.T) {
	m := asm(t, `module t memwords=64
func @k nregs=3 nfregs=0 {
e:
  tid r0
  join b0
  and r1, r0, #1
  cbr r1, quit, stay
quit:
  cancel b0
  const r2, #1
  st [r0], r2
  exit
stay:
  wait b0
  const r2, #2
  st [r0], r2
  exit
}
`)
	res := run(t, m, Config{Strict: true})
	for i := 0; i < 32; i++ {
		want := uint64(2)
		if i%2 == 1 {
			want = 1
		}
		if res.Memory[i] != want {
			t.Fatalf("mem[%d] = %d, want %d", i, res.Memory[i], want)
		}
	}
}

// TestExitLeakDetected: a lane exiting while still participating is an
// implicit cancel normally, and an error under strict accounting.
func TestExitLeakDetected(t *testing.T) {
	m := asm(t, `module t memwords=64
func @k nregs=2 nfregs=0 {
e:
  tid r0
  join b0
  and r1, r0, #1
  cbr r1, leave, waitblk
leave:
  exit
waitblk:
  wait b0
  exit
}
`)
	if _, err := Run(m, Config{}); err != nil {
		t.Fatalf("non-strict run should complete via implicit exit cancel: %v", err)
	}
	_, err := Run(m, Config{Strict: true})
	if err == nil || !strings.Contains(err.Error(), "missing CancelBarrier") {
		t.Fatalf("strict mode should flag leaked participation, got %v", err)
	}
}

// TestTrueDeadlockDetected: two groups wait on barriers the other group
// holds -> deadlock error, not a hang.
func TestTrueDeadlockDetected(t *testing.T) {
	m := asm(t, `module t memwords=64
func @k nregs=2 nfregs=0 {
e:
  tid r0
  join b0
  join b1
  and r1, r0, #1
  cbr r1, w0, w1
w0:
  wait b0
  cancel b1
  exit
w1:
  wait b1
  cancel b0
  exit
}
`)
	_, err := Run(m, Config{})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
}

// TestSoftBarrierThreshold: waitn releases a cohort once the threshold
// is met.
func TestSoftBarrierThreshold(t *testing.T) {
	// Lanes 0..7 run straight to the waitn; the rest spin for a time
	// proportional to their lane id. With threshold 8, the first
	// released cohort must be exactly the 8 early lanes.
	m := asm(t, `module t memwords=128
func @k nregs=3 nfregs=0 {
e:
  tid r0
  join b0
  setlt r1, r0, #8
  cbr r1, meet, slow
slow:
  mul r2, r0, #12
  br spin
spin:
  sub r2, r2, #1
  setgt r1, r2, #0
  cbr r1, spin, meet
meet:
  waitn b0, 8
  const r2, #5
  st [r0], r2
  exit
}
`)
	var firstStore uint32
	cfg := Config{Strict: true, Events: SinkFunc(func(ev Event) {
		if ev.Kind == EvIssue && ev.BlockName == "meet" && ev.Ins == 2 && firstStore == 0 {
			firstStore = ev.Mask
		}
	})}
	res := run(t, m, cfg)
	// The exact cohort depends on scheduling order, but the semantic
	// guarantees are: the 8 early lanes are in the first cohort, the
	// cohort met the threshold, and it did NOT wait for the full warp.
	if firstStore&0xff != 0xff {
		t.Fatalf("first cohort %#08x does not contain the 8 early lanes", firstStore)
	}
	if n := bits.OnesCount32(firstStore); n < 8 {
		t.Fatalf("first cohort has %d lanes, below the threshold", n)
	}
	if firstStore == 0xffffffff {
		t.Fatalf("soft barrier degenerated into a full barrier")
	}
	for i := 0; i < 32; i++ {
		if res.Memory[i] != 5 {
			t.Fatalf("mem[%d] = %d", i, res.Memory[i])
		}
	}
}

// TestSoftBarrierDrainsTail: when fewer participants remain than the
// threshold, the cohort still releases (min(T,|mask|) rule).
func TestSoftBarrierDrainsTail(t *testing.T) {
	m := asm(t, `module t memwords=64
func @k nregs=3 nfregs=0 {
e:
  tid r0
  setlt r1, r0, #4
  cbr r1, joiners, out
joiners:
  join b0
  waitn b0, 30
  const r2, #9
  st [r0], r2
  exit
out:
  const r2, #1
  st [r0], r2
  exit
}
`)
	res := run(t, m, Config{Strict: true})
	for i := 0; i < 4; i++ {
		if res.Memory[i] != 9 {
			t.Fatalf("joiner %d did not complete: %d", i, res.Memory[i])
		}
	}
}

// TestWarpSync blocks until every live lane arrives.
func TestWarpSync(t *testing.T) {
	m := asm(t, `module t memwords=128
func @k nregs=3 nfregs=0 {
e:
  tid r0
  and r1, r0, #1
  cbr r1, slow, meet
slow:
  const r2, #40
  br spin
spin:
  sub r2, r2, #1
  setgt r1, r2, #0
  cbr r1, spin, meet
meet:
  warpsync
  const r2, #3
  st [r0], r2
  exit
}
`)
	var storeMasks []uint32
	run(t, m, Config{Strict: true, Events: SinkFunc(func(ev Event) {
		if ev.Kind == EvIssue && ev.BlockName == "meet" && ev.Ins == 2 {
			storeMasks = append(storeMasks, ev.Mask)
		}
	})})
	if len(storeMasks) != 1 || storeMasks[0] != 0xffffffff {
		t.Fatalf("warpsync did not converge the warp: %#x", storeMasks)
	}
}

// TestCallRet: calls execute the callee and return to the next
// instruction.
func TestCallRet(t *testing.T) {
	m := asm(t, `module t memwords=64
func @double nregs=8 nfregs=0 {
d:
  add r7, r7, r7
  ret
}
func @k nregs=8 nfregs=0 {
e:
  tid r0
  mov r7, r0
  call @double
  call @double
  st [r0], r7
  exit
}
`)
	res := run(t, m, Config{Kernel: "k", Strict: true})
	for i := 0; i < 32; i++ {
		if res.Memory[i] != uint64(4*i) {
			t.Fatalf("mem[%d] = %d, want %d", i, res.Memory[i], 4*i)
		}
	}
}

// TestCallConvergesAcrossSites: lanes calling the same function from
// different call sites share issue slots inside the callee.
func TestCallConvergesAcrossSites(t *testing.T) {
	m := asm(t, `module t memwords=64
func @leaf nregs=8 nfregs=0 {
l:
  add r7, r7, #100
  ret
}
func @k nregs=8 nfregs=0 {
e:
  tid r0
  mov r7, r0
  and r1, r0, #1
  cbr r1, a, b
a:
  call @leaf
  br m
b:
  call @leaf
  br m
m:
  st [r0], r7
  exit
}
`)
	var leafMasks []uint32
	run(t, m, Config{Kernel: "k", Strict: true, Events: SinkFunc(func(ev Event) {
		if ev.Kind == EvIssue && ev.FnName == "leaf" && ev.Ins == 0 {
			leafMasks = append(leafMasks, ev.Mask)
		}
	})})
	// Without speculative reconvergence, the two call sites serialize:
	// two half-warp executions of the leaf.
	if len(leafMasks) != 2 {
		t.Fatalf("leaf executed %d times, want 2 (serialized call sites)", len(leafMasks))
	}
}

// TestOutOfBoundsMemory reports a clean error.
func TestOutOfBoundsMemory(t *testing.T) {
	m := asm(t, `module t memwords=8
func @k nregs=2 nfregs=0 {
e:
  const r0, #100
  const r1, #1
  st [r0], r1
  exit
}
`)
	_, err := Run(m, Config{})
	if err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("want out-of-bounds error, got %v", err)
	}
}

// TestIssueBudget catches livelock.
func TestIssueBudget(t *testing.T) {
	m := asm(t, `module t memwords=8
func @k nregs=1 nfregs=0 {
e:
  const r0, #1
  br loop
loop:
  br loop
}
`)
	_, err := Run(m, Config{MaxIssues: 1000})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("want budget error, got %v", err)
	}
}

// TestPartialWarp: thread counts that do not fill the warp run fine.
func TestPartialWarp(t *testing.T) {
	m := asm(t, `module t memwords=64
func @k nregs=2 nfregs=0 {
e:
  tid r0
  const r1, #1
  st [r0], r1
  exit
}
`)
	res := run(t, m, Config{Threads: 5, Strict: true})
	for i := 0; i < 5; i++ {
		if res.Memory[i] != 1 {
			t.Fatalf("thread %d did not run", i)
		}
	}
	if res.Memory[5] != 0 {
		t.Fatal("thread 5 should not exist")
	}
}

// TestMultiWarp runs several warps over shared memory with atomics.
func TestMultiWarp(t *testing.T) {
	m := asm(t, `module t memwords=512
func @k nregs=4 nfregs=0 {
e:
  tid r0
  const r1, #256
  const r2, #1
  atomadd r3, [r1], r2
  st [r0], r2
  exit
}
`)
	res := run(t, m, Config{Threads: 96, Strict: true})
	if res.Memory[256] != 96 {
		t.Fatalf("atomic count = %d, want 96", res.Memory[256])
	}
	if res.Metrics.Warps != 3 {
		t.Fatalf("warps = %d, want 3", res.Metrics.Warps)
	}
}

// TestPoliciesPreserveSemantics: every scheduler policy yields the same
// final memory.
func TestPoliciesPreserveSemantics(t *testing.T) {
	m := asm(t, `module t memwords=128
func @k nregs=4 nfregs=2 {
e:
  tid r0
  const r1, #0
  fconst f0, #0.0
  br hdr
hdr:
  setlt r2, r1, #30
  cbr r2, body, done
body:
  frand f1
  fadd f0, f0, f1
  fsetlt r3, f1, #0.5
  cbr r3, extra, next
extra:
  fadd f0, f0, #1.0
  br next
next:
  add r1, r1, #1
  br hdr
done:
  fst [r0], f0
  exit
}
`)
	var ref []uint64
	for _, pol := range []Policy{PolicyMaxGroup, PolicyMinPC, PolicyRoundRobin} {
		res := run(t, m, Config{Seed: 3, Policy: pol, Strict: true})
		if ref == nil {
			ref = res.Memory
			continue
		}
		for i := range ref {
			if ref[i] != res.Memory[i] {
				t.Fatalf("policy %v diverges at word %d", pol, i)
			}
		}
	}

	// The inter-warp scheduler policies must agree too: the kernel is
	// race-free (each lane stores only to its own tid word), so any warp
	// interleaving yields the same memory. Flat multi-warp launches and
	// grid launches both pin it, with the starvation monitor armed so a
	// genuinely unfair-but-finite run still passes.
	var flatRef, gridRef []uint64
	for _, sp := range SchedPolicies() {
		flat := run(t, m, Config{Seed: 3, Threads: 96, Sched: sp, SchedSeed: 11, StarveLimit: 1 << 30, Strict: true})
		if flatRef == nil {
			flatRef = flat.Memory
		} else {
			for i := range flatRef {
				if flatRef[i] != flat.Memory[i] {
					t.Fatalf("flat sched %v diverges at word %d", sp, i)
				}
			}
		}
		grid := run(t, m, Config{Seed: 3, Grid: 3, CTASize: 2 * 32, SMs: 2, Memory: make([]uint64, 256), Sched: sp, SchedSeed: 11, StarveLimit: 1 << 30, Strict: true})
		if gridRef == nil {
			gridRef = append([]uint64(nil), grid.Memory...)
		} else {
			for i := range gridRef {
				if gridRef[i] != grid.Memory[i] {
					t.Fatalf("grid sched %v diverges at word %d", sp, i)
				}
			}
		}
	}
}

// TestCoalescing: adjacent addresses coalesce into few transactions;
// strided addresses into many.
func TestCoalescing(t *testing.T) {
	coalesced := asm(t, `module t memwords=4096
func @k nregs=2 nfregs=0 {
e:
  tid r0
  const r1, #1
  st [r0+64], r1
  exit
}
`)
	res := run(t, coalesced, Config{Strict: true})
	// 32 consecutive words starting at 64 = exactly 2 lines of 16.
	if res.Metrics.MemTransactions != 2 {
		t.Errorf("coalesced store transactions = %d, want 2", res.Metrics.MemTransactions)
	}

	strided := asm(t, `module t memwords=4096
func @k nregs=3 nfregs=0 {
e:
  tid r0
  mul r1, r0, #64
  const r2, #1
  st [r1+64], r2
  exit
}
`)
	res = run(t, strided, Config{Strict: true})
	if res.Metrics.MemTransactions != 32 {
		t.Errorf("strided store transactions = %d, want 32", res.Metrics.MemTransactions)
	}
}

// TestCacheHitsAndMisses: repeated access to one line hits after the
// first touch; the MLP model charges the worst transaction plus
// throughput.
func TestCacheHitsAndMisses(t *testing.T) {
	m := asm(t, `module t memwords=4096
func @k nregs=3 nfregs=0 {
e:
  const r0, #0
  const r1, #0
  br loop
loop:
  ld r2, [r0+128]
  add r1, r1, #1
  setlt r2, r1, #10
  cbr r2, loop, done
done:
  exit
}
`)
	res := run(t, m, Config{Threads: 1, Strict: true})
	if res.Metrics.CacheMisses != 1 {
		t.Errorf("misses = %d, want 1", res.Metrics.CacheMisses)
	}
	if res.Metrics.CacheHits != 9 {
		t.Errorf("hits = %d, want 9", res.Metrics.CacheHits)
	}
}

// TestDeterminism: identical configs give identical metrics and memory;
// different seeds differ.
func TestDeterminism(t *testing.T) {
	m := asm(t, `module t memwords=128
func @k nregs=2 nfregs=2 {
e:
  tid r0
  frand f0
  frand f1
  fadd f0, f0, f1
  fst [r0], f0
  exit
}
`)
	a := run(t, m, Config{Seed: 42, Strict: true})
	b := run(t, m, Config{Seed: 42, Strict: true})
	if a.Metrics.Issues != b.Metrics.Issues || a.Metrics.Cycles != b.Metrics.Cycles {
		t.Fatal("metrics differ across identical runs")
	}
	for i := range a.Memory {
		if a.Memory[i] != b.Memory[i] {
			t.Fatalf("memory differs at %d", i)
		}
	}
	c := run(t, m, Config{Seed: 43, Strict: true})
	same := true
	for i := range a.Memory {
		if a.Memory[i] != c.Memory[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical random output")
	}
}

// TestArrivedCount: the arrived instruction reports lanes blocked at a
// wait.
func TestArrivedCount(t *testing.T) {
	m := asm(t, `module t memwords=128
func @k nregs=3 nfregs=0 {
e:
  tid r0
  join b0
  seteq r1, r0, #31
  cbr r1, probe, waitblk
probe:
  arrived r2, b0
  st [r0+32], r2
  cancel b0
  exit
waitblk:
  wait b0
  exit
}
`)
	res := run(t, m, Config{Strict: true})
	// Lane 31 probes after the 31-lane group blocked at the wait
	// (max-group scheduling runs the big group first).
	if got := res.Memory[63]; got != 31 {
		t.Fatalf("arrived = %d, want 31", got)
	}
}

// TestBlockVisitProfile: the profile counters report active lanes
// entering each block.
func TestBlockVisitProfile(t *testing.T) {
	m := asm(t, `module t memwords=64
func @k nregs=2 nfregs=0 {
e:
  tid r0
  and r1, r0, #1
  cbr r1, a, b
a:
  br m
b:
  br m
m:
  exit
}
`)
	res := run(t, m, Config{Strict: true})
	// Block indexes: e=0, a=1, b=2, m=3.
	if got := res.Metrics.BlockVisits(0, 0); got != 32 {
		t.Errorf("entry visits = %d, want 32", got)
	}
	if got := res.Metrics.BlockVisits(0, 1); got != 16 {
		t.Errorf("a visits = %d, want 16", got)
	}
	if got := res.Metrics.BlockVisits(0, 3); got != 32 {
		t.Errorf("m visits = %d, want 32", got)
	}
}
