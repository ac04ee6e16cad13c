package simt_test

import (
	"errors"
	"fmt"
	"testing"

	"specrecon/internal/core"
	"specrecon/internal/corpus"
	"specrecon/internal/ir"
	"specrecon/internal/simt"
	"specrecon/internal/workloads"
)

// The resident group table is where the running lanes' PCs live, and a
// lane's own PC slot is only current while the lane is not running or
// the table is stale: byte-identical simulation rests on the table
// equalling a scan of the lanes (with its PCs spilled) whenever it is
// not marked stale, and on every lazily kept PC equalling the PC an
// eager per-lane model would hold. These tests run real launches with
// both comparisons made after every issue (the TableCheck seam), across
// every driver, scheduler and group picker.

// tableDriver is one launch driver the invariant is checked under;
// shape rewrites a flat single-CTA config for it.
type tableDriver struct {
	name  string
	shape func(cfg simt.Config, ctaSize int) simt.Config
}

func tableDrivers() []tableDriver {
	ds := []tableDriver{
		{"flat", func(cfg simt.Config, _ int) simt.Config { return cfg }},
		{"interleave", func(cfg simt.Config, _ int) simt.Config {
			cfg.InterleaveWarps = true
			return cfg
		}},
	}
	// Grid launches: the same thread count split into two CTAs over two
	// SMs, under the greedy pass and under every scheduling policy.
	for _, sp := range simt.SchedPolicies() {
		sp := sp
		ds = append(ds, tableDriver{"grid-" + sp.String(), func(cfg simt.Config, ctaSize int) simt.Config {
			cfg.Grid, cfg.CTASize, cfg.SMs, cfg.Workers = cfg.Threads/ctaSize, ctaSize, 2, 2
			cfg.Sched, cfg.SchedSeed = sp, 11
			return cfg
		}})
	}
	return ds
}

// tableBuilds are the two compiler builds every kernel is checked under.
var tableBuilds = []struct {
	name string
	opts core.Options
}{{"base", core.BaselineOptions()}, {"spec", core.SpecReconOptions()}}

var tablePickers = []simt.Policy{simt.PolicyMaxGroup, simt.PolicyMinPC, simt.PolicyRoundRobin}

func parseKernel(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// checkTable runs one launch under the invariant check and reports the
// in-place and stale table counts. The eager shadow reads events inside
// the issue loop, which a launch sharded over Workers > 1 delivers only
// afterwards: such a launch is held to the table scan as it is, and run
// once more with Workers 1 — the same SMs, one after another — for the
// shadow.
func checkTable(t *testing.T, name string, m *ir.Module, cfg simt.Config) (checked, stale int64) {
	t.Helper()
	run := func(cfg simt.Config) *simt.TableCheck {
		t.Helper()
		_, tc, err := simt.RunTableChecked(m, cfg)
		if tc != nil && tc.Err != nil {
			t.Fatalf("%s: group table, lane PCs and eager shadow disagree: %v", name, tc.Err)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checked, stale = checked+tc.Checked, stale+tc.Stale
		return tc
	}
	if cfg.Workers > 1 {
		run(cfg)
		cfg.Workers = 1
	}
	if run(cfg).Lanes == 0 {
		t.Fatalf("%s: no lane PC was ever compared with the eager shadow", name)
	}
	return checked, stale
}

// TestGroupTableIsTheScanWorkloads covers the 12 bundled workloads, both
// builds, under every driver and picker.
func TestGroupTableIsTheScanWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		inst := w.Build(workloads.BuildConfig{Threads: 2 * ir.WarpWidth, Tasks: 2})
		for _, build := range tableBuilds {
			comp, err := core.Compile(inst.Module, build.opts)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", w.Name, build.name, err)
			}
			var checked int64
			for _, d := range tableDrivers() {
				for _, pol := range tablePickers {
					cfg := d.shape(simt.Config{
						Kernel: inst.Kernel, Threads: inst.Threads, Seed: inst.Seed,
						Memory: inst.Memory, Policy: pol,
					}, ir.WarpWidth)
					name := fmt.Sprintf("%s/%s/%s/%v", w.Name, build.name, d.name, pol)
					c, _ := checkTable(t, name, comp.Module, cfg)
					checked += c
				}
			}
			if checked == 0 {
				t.Fatalf("%s/%s: no table was ever compared (always stale?)", w.Name, build.name)
			}
		}
	}
}

// TestGroupTableIsTheScanCorpus covers a 200-kernel slice of the
// generated corpus the same way.
func TestGroupTableIsTheScanCorpus(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	for _, app := range corpus.Generate(n, 42) {
		for _, build := range tableBuilds {
			comp, err := core.Compile(app.Module, build.opts)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", app.Name, build.name, err)
			}
			for _, d := range tableDrivers() {
				for _, pol := range tablePickers {
					// One warp per app: the grid drivers split it into two
					// half-warp CTAs so both SMs run.
					cfg := d.shape(simt.Config{
						Kernel: app.Kernel, Threads: app.Threads, Seed: app.Seed,
						Memory: app.Memory, Policy: pol,
					}, app.Threads/2)
					checkTable(t, fmt.Sprintf("%s/%s/%s/%v", app.Name, build.name, d.name, pol), comp.Module, cfg)
				}
			}
		}
	}
}

// tableBarrierKernel exercises every status-changing path in one warp
// loop: a hard barrier, a soft barrier (waitn), warpsync, a call whose
// callee diverges, and lanes exiting at different times.
const tableBarrierKernel = `module tb memwords=4096
func @k nregs=8 nfregs=1 {
entry:
  tid r0
  const r1, #0
  br header
header:
  and r6, r0, #7
  add r6, r6, #3
  setlt r2, r1, r6
  cbr r2, body, done
body:
  join b0
  join b1
  and r3, r0, #3
  cbr r3, left, right
left:
  ld r4, [r0+0]
  call @leaf
  br merge
right:
  st [r0], r1
  br merge
merge:
  waitn b1, 5
  wait b0
  warpsync
  add r1, r1, #1
  br header
done:
  cancel b1
  exit
}
func @leaf nregs=8 nfregs=1 {
e:
  and r5, r0, #1
  cbr r5, odd, even
odd:
  add r5, r5, #1
  ret
even:
  ret
}
`

// tableCTABarKernel has two warps per CTA meeting at a ctabar each
// iteration; warp 0's lanes run fewer iterations, so warp 1's last
// barriers open on warp 0's exit — both cross-warp release paths.
const tableCTABarKernel = `module tc memwords=4096 sharedwords=64
func @k nregs=8 nfregs=1 {
entry:
  ctatid r0
  tid r6
  const r1, #0
  and r7, r0, #32
  shr r7, r7, #4
  add r7, r7, #4
  br header
header:
  setlt r2, r1, r7
  cbr r2, body, done
body:
  sts [r0], r1
  ctabar b0
  and r3, r0, #3
  cbr r3, left, right
left:
  lds r4, [r0+0]
  br merge
right:
  st [r6], r1
  br merge
merge:
  add r1, r1, #1
  br header
done:
  exit
}
`

// TestGroupTableIsTheScanSpecialCases pins the invalidating events that
// workloads rarely reach: the SkipReleaseN fault, soft barriers,
// warpsync, a ctabar released from another warp, and Machine relaunch.
func TestGroupTableIsTheScanSpecialCases(t *testing.T) {
	parse := func(src string) *ir.Module { return parseKernel(t, src) }
	barrier := parse(tableBarrierKernel)
	for _, pol := range tablePickers {
		checked, stale := checkTable(t, fmt.Sprintf("barriers/%v", pol), barrier, simt.Config{Threads: 2 * ir.WarpWidth, Seed: 3, Policy: pol})
		if checked == 0 || stale == 0 {
			t.Fatalf("barriers/%v: %d compared, %d stale: both paths must run", pol, checked, stale)
		}
	}

	// A lost hard-barrier release: the launch must still deadlock, and
	// the table must track the lanes all the way there.
	hard := parse(`module th memwords=64
func @k nregs=4 nfregs=0 {
e:
  tid r0
  const r1, #0
  br header
header:
  setlt r2, r1, #4
  cbr r2, body, done
body:
  join b0
  and r3, r0, #1
  cbr r3, odd, merge
odd:
  st [r0], r1
  br merge
merge:
  wait b0
  add r1, r1, #1
  br header
done:
  exit
}
`)
	checkTable(t, "hard-barrier", hard, simt.Config{Threads: ir.WarpWidth})
	_, tc, err := simt.RunTableChecked(hard, simt.Config{Threads: ir.WarpWidth, SkipReleaseN: 3})
	if err == nil {
		t.Fatal("SkipReleaseN: launch finished, want deadlock")
	}
	if tc.Err != nil {
		t.Fatalf("SkipReleaseN: %v", tc.Err)
	}

	// ctabar across warps: two warps per CTA, so the arrival of one
	// warp's lanes releases the other's — the cross-warp invalidation.
	grid := parse(tableCTABarKernel)
	for _, sp := range simt.SchedPolicies() {
		cfg := simt.Config{Grid: 2, CTASize: 2 * ir.WarpWidth, SMs: 1, Seed: 1, Sched: sp, SchedSeed: 5}
		checkTable(t, "ctabar/"+sp.String(), grid, cfg)
	}
	checkTable(t, "ctabar/flat", grid, simt.Config{Threads: 2 * ir.WarpWidth, Seed: 1, InterleaveWarps: true})

	// Machine relaunch: pooled warps must come back stale, not with the
	// previous launch's table. The sharded grid is held to the table scan
	// alone (see checkTable), the serial one to the shadow too.
	for _, cfg := range []simt.Config{
		{Threads: 2 * ir.WarpWidth, Seed: 1, InterleaveWarps: true},
		{Grid: 4, CTASize: 2 * ir.WarpWidth, SMs: 2, Workers: 2, Seed: 1},
		{Grid: 4, CTASize: 2 * ir.WarpWidth, SMs: 2, Seed: 1},
	} {
		mc, tc, err := simt.NewTableCheckedMachine(grid, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for launch := 0; launch < 3; launch++ {
			cfg.Seed = uint64(launch + 1)
			if _, err := mc.Run(tc.Attach(grid, cfg)); err != nil {
				t.Fatalf("relaunch %d: %v", launch, err)
			}
			if tc.Err != nil {
				t.Fatalf("relaunch %d: %v", launch, tc.Err)
			}
		}
		if tc.Checked == 0 || (cfg.Workers <= 1 && tc.Lanes == 0) {
			t.Fatalf("relaunch: %d tables and %d lane PCs compared", tc.Checked, tc.Lanes)
		}
	}
}

// TestFlatPCIsBuildPCTable pins the one enumeration of static
// instructions: the decode table indexed by a flat PC locates the same
// instruction as BuildPCTable, every pre-resolved br/cbr/call successor
// is the first PC of the successor block or callee, and every EvIssue
// carries the PC of the group it was issued from.
func TestFlatPCIsBuildPCTable(t *testing.T) {
	check := func(name string, m *ir.Module, cfg simt.Config) {
		t.Helper()
		if err := simt.DecodeMismatch(m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, pol := range []simt.Policy{simt.PolicyMaxGroup, simt.PolicyMinPC} {
			cfg.Policy = pol
			issues, err := simt.IssuePCMismatch(m, cfg)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, pol, err)
			}
			if issues == 0 {
				t.Fatalf("%s/%v: nothing issued", name, pol)
			}
		}
	}
	for _, w := range workloads.All() {
		inst := w.Build(workloads.BuildConfig{Threads: ir.WarpWidth, Tasks: 2})
		for _, build := range tableBuilds {
			comp, err := core.Compile(inst.Module, build.opts)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", w.Name, build.name, err)
			}
			check(w.Name+"/"+build.name, comp.Module, simt.Config{
				Kernel: inst.Kernel, Threads: inst.Threads, Seed: inst.Seed, Memory: inst.Memory,
			})
		}
	}
	for _, app := range corpus.Generate(40, 42) {
		for _, build := range tableBuilds {
			comp, err := core.Compile(app.Module, build.opts)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", app.Name, build.name, err)
			}
			check(app.Name+"/"+build.name, comp.Module, simt.Config{
				Kernel: app.Kernel, Threads: app.Threads, Seed: app.Seed, Memory: app.Memory,
			})
		}
	}
}

// TestLazyPCsMatchEagerShadow covers what the TestGroupTableIsTheScan*
// matrix (which runs the same eager-shadow comparison on every launch)
// does not reach: launches that end in an error, where the diagnostic is
// built from per-lane PCs that were spilled out of the table.
func TestLazyPCsMatchEagerShadow(t *testing.T) {
	parse := func(src string) *ir.Module { return parseKernel(t, src) }
	// runErr runs src to its error under the table check.
	runErr := func(name, src string, cfg simt.Config) error {
		t.Helper()
		_, tc, err := simt.RunTableChecked(parse(src), cfg)
		if err == nil {
			t.Fatalf("%s: launch finished, want an error", name)
		}
		if tc.Err != nil {
			t.Fatalf("%s: %v", name, tc.Err)
		}
		if tc.Lanes == 0 {
			t.Fatalf("%s: no lane PC was compared before the error", name)
		}
		return err
	}

	// Odd lanes block at a wait early; even lanes keep running a loop —
	// the table is rebuilt and edited many times over while the odd
	// lanes' PCs sit in their slots — and then block on a barrier the
	// odd lanes never reach. Every blocked lane must report the
	// instruction it blocked at.
	err := runErr("deadlock", `module dl memwords=64
func @k nregs=8 nfregs=0 {
entry:
  tid r0
  join b0
  join b1
  and r1, r0, #1
  const r2, #0
  cbr r1, odd, loop
odd:
  add r5, r0, #1
  wait b0
  exit
loop:
  add r2, r2, #1
  and r3, r2, #1
  cbr r3, tick, tock
tick:
  add r4, r4, #1
  br next
tock:
  add r4, r4, #2
  br next
next:
  setlt r3, r2, #20
  cbr r3, loop, even
even:
  add r5, r0, #2
  add r5, r5, #3
  wait b1
  exit
}
`, simt.Config{Threads: ir.WarpWidth})
	var dl *simt.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("deadlock: got %v, want a DeadlockError", err)
	}
	if len(dl.Lanes) != ir.WarpWidth {
		t.Fatalf("deadlock: %d blocked lanes reported, want %d", len(dl.Lanes), ir.WarpWidth)
	}
	for _, bl := range dl.Lanes {
		want := simt.BlockedLane{Lane: bl.Lane, Fn: "k", Block: "even", Ins: 2, Bar: 1}
		if bl.Lane%2 == 1 {
			want = simt.BlockedLane{Lane: bl.Lane, Fn: "k", Block: "odd", Ins: 1, Bar: 0}
		}
		if bl != want {
			t.Errorf("deadlock: lane %d reported as %+v, want %+v", bl.Lane, bl, want)
		}
	}

	// Errors raised in the middle of a group, after lower lanes already
	// executed: lanes 16-31 recurse one frame deeper than lanes 0-15, so
	// the overflow is lane 16's; addresses run past memory from lane 20.
	err = runErr("call overflow", `module ov memwords=64
func @k nregs=4 nfregs=0 {
entry:
  tid r0
  and r1, r0, #16
  cbr r1, deep, shallow
deep:
  call @pad
  exit
shallow:
  call @rec
  exit
}
func @pad nregs=4 nfregs=0 {
e:
  call @rec
  ret
}
func @rec nregs=4 nfregs=0 {
e:
  add r2, r2, #1
  call @rec
  ret
}
`, simt.Config{Threads: ir.WarpWidth})
	if got, want := err.Error(), "simt: warp 0: call stack overflow in lane 16"; got != want {
		t.Errorf("call overflow: error %q, want %q", got, want)
	}
	err = runErr("global OOB", `module ob memwords=40
func @k nregs=4 nfregs=0 {
e:
  tid r0
  add r1, r0, #1
  ld r2, [r0+20]
  exit
}
`, simt.Config{Threads: ir.WarpWidth})
	if got, want := err.Error(), "simt: warp 0: lane 20 at k.e#2: memory access out of bounds: address 40 (memory 40 words)"; got != want {
		t.Errorf("global OOB: error %q, want %q", got, want)
	}
}
