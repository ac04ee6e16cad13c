package simt

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// spinFlagKernel is a cross-warp producer/consumer: warp 0 spins on a
// memory flag that warp 1 sets after a short delay. It terminates under
// any scheduler that eventually issues warp 1, and starves warp 1
// forever under OBE (warp 0 is lower-indexed and always runnable).
const spinFlagKernel = `module spinflag memwords=256
func @k nregs=8 nfregs=0 {
entry:
  tid r0
  const r3, #128
  setlt r1, r0, #32
  cbr r1, spin, writer
spin:
  ld r2, [r3+0]
  cbr r2, sdone, spin
sdone:
  st [r0], r2
  exit
writer:
  const r4, #1
  st [r3], r4
  exit
}
`

func TestSchedPolicyStringRoundTrip(t *testing.T) {
	for _, sp := range SchedPolicies() {
		got, err := ParseSchedPolicy(sp.String())
		if err != nil {
			t.Fatalf("ParseSchedPolicy(%q): %v", sp.String(), err)
		}
		if got != sp {
			t.Fatalf("round trip %v -> %q -> %v", sp, sp.String(), got)
		}
	}
	if _, err := ParseSchedPolicy("bogus"); err == nil {
		t.Fatal("ParseSchedPolicy(bogus) succeeded")
	}
	for _, alias := range []string{"greedy-converge", "oldest-first", "youngest-first", "loose", "loose-fair", "obe"} {
		if _, err := ParseSchedPolicy(alias); err != nil {
			t.Fatalf("alias %q rejected: %v", alias, err)
		}
	}
	for _, name := range []string{"maxgroup", "minpc", "roundrobin"} {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		if p.String() != name {
			t.Fatalf("ParsePolicy(%q) = %v", name, p)
		}
	}
}

// TestSchedCrossWarpProgress: fair policies resolve the cross-warp
// spin/flag dependency on a flat launch (a non-greedy policy makes the
// launch one wave of all its warps, not one wave per warp).
func TestSchedCrossWarpProgress(t *testing.T) {
	m := asm(t, spinFlagKernel)
	for _, sp := range []SchedPolicy{SchedOldestFirst, SchedRandom} {
		res := run(t, m, Config{Threads: 64, Seed: 1, Sched: sp, SchedSeed: 9, Strict: true})
		for i := 0; i < 32; i++ {
			if res.Memory[i] != 1 {
				t.Fatalf("%v: word %d = %d, want 1 (flag observed)", sp, i, res.Memory[i])
			}
		}
	}
}

// TestStarvationMonitor: OBE starves the writer warp of spinFlagKernel;
// with StarveLimit armed the launch fails with a typed StarvationError
// naming the starved warp, instead of spinning to the issue budget.
func TestStarvationMonitor(t *testing.T) {
	m := asm(t, spinFlagKernel)
	_, err := Run(m, Config{Threads: 64, Seed: 1, Sched: SchedLooseFair, StarveLimit: 2000, Strict: true})
	var se *StarvationError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want StarvationError", err)
	}
	if se.Warp != 1 {
		t.Fatalf("starved warp = %d, want 1", se.Warp)
	}
	if se.Sched != SchedLooseFair {
		t.Fatalf("sched = %v, want obe", se.Sched)
	}
	if se.AgeCycles <= se.Limit || se.Limit != 2000 {
		t.Fatalf("age %d / limit %d inconsistent", se.AgeCycles, se.Limit)
	}
	if se.SM != -1 || se.CTA != -1 {
		t.Fatalf("flat launch should report SM/CTA -1, got %d/%d", se.SM, se.CTA)
	}

	// Youngest-first sticks to warp 0 just like OBE here (it issued
	// first and never blocks), so the monitor fires there too — on a
	// grid launch, with hierarchy coordinates attached.
	_, err = Run(m, Config{Grid: 1, CTASize: 64, SMs: 1, Seed: 1, Sched: SchedYoungestFirst, StarveLimit: 2000, Strict: true})
	se = nil
	if !errors.As(err, &se) {
		t.Fatalf("grid err = %v, want StarvationError", err)
	}
	if se.SM != 0 || se.CTA != 0 || se.Warp != 1 {
		t.Fatalf("grid starvation at sm%d cta%d warp%d, want 0/0/1", se.SM, se.CTA, se.Warp)
	}

	// Without the monitor the same launch degrades to the issue-budget
	// guard — starvation is otherwise indistinguishable from livelock.
	_, err = Run(m, Config{Threads: 64, Seed: 1, Sched: SchedLooseFair, MaxIssues: 50_000, Strict: true})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("unmonitored err = %v, want BudgetError", err)
	}
}

// TestWallClockWatchdog: a kernel that spins forever trips the
// wall-clock watchdog with a typed WatchdogError long before the
// modeled issue budget would fire.
func TestWallClockWatchdog(t *testing.T) {
	m := asm(t, `module w memwords=64
func @k nregs=4 nfregs=0 {
e:
  tid r0
  br loop
loop:
  ld r1, [r0+0]
  br loop
}
`)
	start := time.Now()
	_, err := Run(m, Config{Seed: 1, WallBudget: 5 * time.Millisecond})
	var we *WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want WatchdogError", err)
	}
	if we.Budget != 5*time.Millisecond || we.Issues == 0 {
		t.Fatalf("watchdog diagnostic incomplete: %+v", we)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("watchdog took %v to fire", elapsed)
	}

	// The policy scheduler and the stack engine share the watchdog.
	_, err = Run(m, Config{Threads: 64, Seed: 1, Sched: SchedOldestFirst, WallBudget: 5 * time.Millisecond})
	if we = nil; !errors.As(err, &we) {
		t.Fatalf("sched err = %v, want WatchdogError", err)
	}
	_, err = Run(m, Config{Seed: 1, Model: ModelStack, WallBudget: 5 * time.Millisecond})
	if we = nil; !errors.As(err, &we) {
		t.Fatalf("stack err = %v, want WatchdogError", err)
	}
}

// TestSchedRandomDeterminism: the random policy's per-SM pick streams
// make a sharded grid run byte-identical for any worker count, and the
// same seed reproduces the same schedule-sensitive counters.
func TestSchedRandomDeterminism(t *testing.T) {
	m := asm(t, `module rnd memwords=2048 sharedwords=64
func @k nregs=8 nfregs=0 {
entry:
  ctatid r0
  tid r6
  const r1, #0
  br hdr
hdr:
  setlt r2, r1, #40
  cbr r2, body, done
body:
  sts [r0], r1
  ctabar b0
  lds r4, [r0+0]
  add r1, r1, #1
  br hdr
done:
  st [r6], r1
  exit
}
`)
	base := Config{Grid: 8, CTASize: 64, SMs: 4, Seed: 3, Sched: SchedRandom, SchedSeed: 21, Strict: true}
	serial := run(t, m, base)
	sharded := base
	sharded.Workers = 4
	par := run(t, m, sharded)
	if serial.Metrics.Issues != par.Metrics.Issues || serial.Metrics.Cycles != par.Metrics.Cycles {
		t.Fatalf("sharded random run diverged: issues %d vs %d, cycles %d vs %d",
			serial.Metrics.Issues, par.Metrics.Issues, serial.Metrics.Cycles, par.Metrics.Cycles)
	}
	for i := range serial.Memory {
		if serial.Memory[i] != par.Memory[i] {
			t.Fatalf("sharded random run memory diverges at word %d", i)
		}
	}
	again := run(t, m, base)
	if serial.Metrics.Issues != again.Metrics.Issues {
		t.Fatalf("same seed, different schedule: issues %d vs %d", serial.Metrics.Issues, again.Metrics.Issues)
	}
}

// TestSchedConfigValidation: negative liveness budgets and out-of-range
// policies are rejected.
func TestSchedConfigValidation(t *testing.T) {
	m := asm(t, `module v memwords=64
func @k nregs=2 nfregs=0 {
e:
  exit
}
`)
	if _, err := Run(m, Config{Sched: SchedPolicy(99)}); err == nil {
		t.Fatal("out-of-range sched policy accepted")
	}
	if _, err := Run(m, Config{StarveLimit: -1}); err == nil {
		t.Fatal("negative StarveLimit accepted")
	}
	if _, err := Run(m, Config{WallBudget: -time.Second}); err == nil {
		t.Fatal("negative WallBudget accepted")
	}
}

// TestSchedInitReusesArena: the scheduler's selection state is arena
// scratch — once a Machine's first launch has sized it, making a wave
// resident allocates nothing under any policy.
func TestSchedInitReusesArena(t *testing.T) {
	m := asm(t, spinFlagKernel)
	for _, sp := range SchedPolicies()[1:] {
		cfg := Config{Grid: 4, CTASize: 64, Seed: 1, Sched: sp, SchedSeed: 9, MaxIssues: 1 << 16}
		mc, err := NewMachine(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mc.Run(cfg) // OBE starves the consumer; the arena is sized either way
		sm := mc.s.smPool[0]
		warps := sm.warpPool[:sm.poolWarp]
		if len(warps) != 8 {
			t.Fatalf("%v: %d warps in the arena, want 8", sp, len(warps))
		}
		if allocs := testing.AllocsPerRun(20, func() { sm.schedInit(warps) }); allocs != 0 {
			t.Errorf("%v: schedInit on a reused machine allocates %.0f objects, want 0", sp, allocs)
		}
	}
}

// TestCacheConfigValidation: a cache geometry or cost the simulator
// cannot build or price with is an ordinary error from Run, NewMachine
// and Machine.Run alike, before anything is allocated — never a panic.
func TestCacheConfigValidation(t *testing.T) {
	m := asm(t, `module v memwords=64
func @k nregs=2 nfregs=0 {
e:
  ld r1, [r0+0]
  exit
}
`)
	mc, err := NewMachine(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cache CacheConfig
		want  string
	}{
		{CacheConfig{Sets: -1}, "simt: negative cache configuration {Sets:-1 "},
		{CacheConfig{Ways: -2}, "simt: negative cache configuration {Sets:0 Ways:-2 "},
		{CacheConfig{LineWords: -4}, "simt: negative cache configuration "},
		{CacheConfig{HitCost: -1}, "simt: negative cache configuration "},
		{CacheConfig{MissCost: -80}, "simt: negative cache configuration "},
		{CacheConfig{TxThroughput: -6}, "simt: negative cache configuration "},
		{CacheConfig{Ways: 256}, "simt: cache Ways 256 exceeds 255"},
	} {
		cfg := Config{Cache: tc.cache}
		if _, err := Run(m, cfg); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("Run with %+v: error %v, want %q", tc.cache, err, tc.want)
		}
		if _, err := NewMachine(m, cfg); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("NewMachine with %+v: error %v, want %q", tc.cache, err, tc.want)
		}
		if _, err := mc.Run(cfg); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("Machine.Run with %+v: error %v, want %q", tc.cache, err, tc.want)
		}
	}
	if _, err := Run(m, Config{Cache: CacheConfig{Sets: 3, Ways: 255, LineWords: 5}}); err != nil {
		t.Errorf("odd but valid geometry rejected: %v", err)
	}
}

// TestSchedMachineRelaunch: Sched, SchedSeed, StarveLimit and
// WallBudget are per-launch inputs — one Machine replays the same
// kernel under different policies with identical results to fresh runs.
func TestSchedMachineRelaunch(t *testing.T) {
	m := asm(t, spinFlagKernel)
	mc, err := NewMachine(m, Config{Threads: 64, Seed: 1, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []SchedPolicy{SchedOldestFirst, SchedRandom} {
		cfg := Config{Threads: 64, Seed: 1, Sched: sp, SchedSeed: 9, Strict: true}
		got, err := mc.Run(cfg)
		if err != nil {
			t.Fatalf("machine run under %v: %v", sp, err)
		}
		want, err := Run(m, cfg)
		if err != nil {
			t.Fatalf("fresh run under %v: %v", sp, err)
		}
		for i := range want.Memory {
			if got.Memory[i] != want.Memory[i] {
				t.Fatalf("%v: machine relaunch diverges from fresh run at word %d", sp, i)
			}
		}
	}
	// A starvation failure must not poison the arena for the next launch.
	if _, err := mc.Run(Config{Threads: 64, Seed: 1, Sched: SchedLooseFair, StarveLimit: 2000, Strict: true}); err == nil {
		t.Fatal("OBE relaunch unexpectedly survived")
	}
	if _, err := mc.Run(Config{Threads: 64, Seed: 1, Sched: SchedOldestFirst, Strict: true}); err != nil {
		t.Fatalf("relaunch after starvation failure: %v", err)
	}
}
