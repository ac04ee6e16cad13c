package simt_test

import (
	"fmt"
	"testing"

	"specrecon/internal/core"
	"specrecon/internal/corpus"
	"specrecon/internal/ir"
	"specrecon/internal/simt"
	"specrecon/internal/workloads"
)

// schedBlockKernel makes the warps of a wave block and retire at
// different times: a ctabar every iteration that the warps of a CTA
// reach after delays of different lengths, a soft barrier most lanes
// leave early, and a trip count that differs per warp and per CTA.
const schedBlockKernel = `module sb memwords=4096 sharedwords=64
func @k nregs=10 nfregs=1 {
entry:
  ctatid r0
  tid r6
  const r1, #0
  shr r7, r0, #5
  ctaid r8
  add r7, r7, r8
  and r7, r7, #3
  add r7, r7, #3
  br header
header:
  setlt r2, r1, r7
  cbr r2, body, done
body:
  mov r9, r7
  br spin
spin:
  sub r9, r9, #1
  setgt r5, r9, #0
  cbr r5, spin, arrive
arrive:
  sts [r0], r1
  ctabar b0
  join b1
  and r3, r0, #3
  cbr r3, left, right
left:
  lds r4, [r0+0]
  br merge
right:
  st [r6], r1
  br merge
merge:
  waitn b1, 20
  add r1, r1, #1
  br header
done:
  exit
}
`

// schedShapes are the launch shapes the scheduler slot is compared on: a
// flat launch as one wave, a grid whose CTAs all share one SM, and a
// grid over two SMs. threads must be a multiple of four warps.
func schedShapes(threads int) []struct {
	name  string
	shape func(simt.Config) simt.Config
} {
	return []struct {
		name  string
		shape func(simt.Config) simt.Config
	}{
		{"flat", func(c simt.Config) simt.Config { c.Threads = threads; return c }},
		{"grid-1sm", func(c simt.Config) simt.Config {
			c.Grid, c.CTASize, c.SMs = threads/64, 64, 1
			return c
		}},
		{"grid-2sm", func(c simt.Config) simt.Config {
			c.Grid, c.CTASize, c.SMs = threads/64, 64, 2
			return c
		}},
	}
}

// TestSchedSlotMatchesScan holds the O(1) scheduler slot against the
// rescanning slot it replaced (sched_ref_test.go): under every policy,
// on every shape, under both divergence models, the same warp issues in
// every slot and every warp's lastIssueSlot agrees after it.
func TestSchedSlotMatchesScan(t *testing.T) {
	policies := []simt.SchedPolicy{simt.SchedOldestFirst, simt.SchedYoungestFirst, simt.SchedLooseFair, simt.SchedRandom}
	models := []simt.Model{simt.ModelITS, simt.ModelStack}
	var total simt.SchedLockstep
	var randomBlocked int64
	check := func(name string, m *ir.Module, cfg simt.Config) {
		t.Helper()
		for _, model := range models {
			for _, sp := range policies {
				seeds := []uint64{0}
				if sp == simt.SchedRandom {
					seeds = []uint64{1, 7, 1234}
				}
				for _, seed := range seeds {
					cfg.Model, cfg.Sched, cfg.SchedSeed = model, sp, seed
					st, err := simt.SchedSlotMismatch(m, cfg)
					if err != nil {
						t.Fatalf("%s/%v/%v/seed%d: %v", name, model, sp, seed, err)
					}
					total.Slots += st.Slots
					total.FirstPickBlocked += st.FirstPickBlocked
					total.AfterRetire += st.AfterRetire
					if sp == simt.SchedRandom {
						randomBlocked += st.FirstPickBlocked
					}
				}
			}
		}
	}

	rs, err := workloads.Get("rsbench")
	if err != nil {
		t.Fatal(err)
	}
	rsThreads := 256
	if testing.Short() {
		rsThreads = 128
	}
	for _, sh := range schedShapes(rsThreads) {
		launch := sh.shape(simt.Config{})
		inst := rs.Build(workloads.BuildConfig{Threads: launch.Threads, Grid: launch.Grid, CTASize: launch.CTASize, SMs: launch.SMs})
		comp, err := core.Compile(inst.Module, core.SpecReconOptions())
		if err != nil {
			t.Fatal(err)
		}
		check("rsbench/"+sh.name, comp.Module, sh.shape(simt.Config{Kernel: inst.Kernel, Seed: inst.Seed, Memory: inst.Memory}))
	}

	block := parseKernel(t, schedBlockKernel)
	for _, sh := range schedShapes(512) {
		check("block/"+sh.name, block, sh.shape(simt.Config{Seed: 5}))
	}

	// Corpus kernels are written for one warp; launched four warps wide
	// they still run (or fail) deterministically, which is all a
	// scheduling comparison needs.
	apps := 50
	if testing.Short() {
		apps = 15
	}
	for _, app := range corpus.Generate(apps, 42) {
		comp, err := core.Compile(app.Module, core.SpecReconOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range schedShapes(128) {
			cfg := sh.shape(simt.Config{Kernel: app.Kernel, Seed: app.Seed, Memory: app.Memory, MaxIssues: 200000})
			check(fmt.Sprintf("%s/%s", app.Name, sh.name), comp.Module, cfg)
		}
	}

	if total.FirstPickBlocked == 0 || randomBlocked == 0 || total.AfterRetire == 0 {
		t.Fatalf("%d slots compared, %d past a blocked first pick (%d under random), %d after a warp retired: every path must run",
			total.Slots, total.FirstPickBlocked, randomBlocked, total.AfterRetire)
	}
	t.Logf("%d slots compared, %d past a blocked first pick (%d under random), %d after a warp retired",
		total.Slots, total.FirstPickBlocked, randomBlocked, total.AfterRetire)
}
