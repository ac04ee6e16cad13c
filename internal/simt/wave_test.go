package simt_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"specrecon/internal/ir"
	"specrecon/internal/simt"
)

// launchShape is one way to make waves of a launch's warps.
type launchShape struct {
	name string
	cfg  simt.Config
}

// sharedWaveShapes returns every launch shape in which the threads
// warps of a launch share a wave: flat InterleaveWarps, flat under each
// non-greedy warp scheduler, and a one-CTA grid.
func sharedWaveShapes(threads int) []launchShape {
	shapes := []launchShape{
		{"interleave", simt.Config{Threads: threads, InterleaveWarps: true}},
		{"grid", simt.Config{Grid: 1, CTASize: threads}},
	}
	for _, sp := range simt.SchedPolicies()[1:] {
		shapes = append(shapes, launchShape{"flat-" + sp.String(), simt.Config{Threads: threads, Sched: sp, SchedSeed: 5}})
	}
	return shapes
}

var bothModels = []simt.Model{simt.ModelITS, simt.ModelStack}

// crossWarpBarKernel sends warp 1 through two more ALU instructions than
// warp 0 on the way to a workgroup barrier (the branch is warp-uniform,
// so neither model diverges), after which every thread stores tid+1.
const crossWarpBarKernel = `module xbar memwords=64
func @k nregs=4 nfregs=0 {
e:
  tid r0
  setlt r1, r0, #32
  cbr r1, bar, late
late:
  add r2, r2, #1
  add r2, r2, #1
  br bar
bar:
  ctabar b0
  add r3, r0, #1
  st [r0], r3
  exit
}
`

// TestCrossWarpCTABarOnEveryDriver: a ctabar that one warp reaches two
// instructions before its sibling opens in every launch shape where the
// two share a wave — the warp that arrives first is skipped, not declared
// deadlocked, while the other still issues — with the same final memory
// under both divergence models. Run to completion one warp at a time,
// warp 0 can never be joined and the launch reports its deadlock at once.
func TestCrossWarpCTABarOnEveryDriver(t *testing.T) {
	mod, err := ir.Parse(crossWarpBarKernel)
	if err != nil {
		t.Fatal(err)
	}
	const threads = 2 * ir.WarpWidth
	for _, model := range bothModels {
		for _, shape := range sharedWaveShapes(threads) {
			t.Run(fmt.Sprintf("%v/%s", model, shape.name), func(t *testing.T) {
				cfg := shape.cfg
				cfg.Model = model
				res, err := simt.Run(mod, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for tid := 0; tid < threads; tid++ {
					if res.Memory[tid] != uint64(tid+1) {
						t.Fatalf("memory[%d] = %d, want %d", tid, res.Memory[tid], tid+1)
					}
				}
				if res.Metrics.CTABarSyncs != 1 {
					t.Errorf("CTABarSyncs = %d, want 1", res.Metrics.CTABarSyncs)
				}
			})
		}
		_, err := simt.Run(mod, simt.Config{Threads: threads, Model: model})
		var de *simt.DeadlockError
		if !errors.As(err, &de) || de.Warp != 0 {
			t.Errorf("%v: run-to-completion launch returned %v, want warp 0's DeadlockError", model, err)
		}
	}
}

// TestModelsAgreeOnEveryDriver uses the two divergence models as each
// other's oracle across the launch shapes and warp schedulers they now
// share: on random control flow with calls, and on a shared-memory
// reduction behind a ctabar, the stack model leaves the same global
// memory and shared segments as ITS in every shape, and its sharded grid
// is identical to its serial one.
func TestModelsAgreeOnEveryDriver(t *testing.T) {
	parse := func(src string) *ir.Module {
		mod, err := ir.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return mod
	}
	kernels := []struct {
		name   string
		mod    *ir.Module
		kernel string
		// alone is the launch size of the run-to-completion shape, whose
		// warps cannot meet at a ctabar; shared that of the flat shapes
		// whose warps share a wave.
		alone, shared int
	}{
		{"control-flow", parse(simt.RandomControlFlowKernel), "k", 3 * ir.WarpWidth, 3 * ir.WarpWidth},
		{"reduce", parse(reduceKernel), "k", ir.WarpWidth, 2 * ir.WarpWidth},
	}
	for _, k := range kernels {
		shapes := append([]launchShape{{"flat", simt.Config{Threads: k.alone}}}, sharedWaveShapes(k.shared)...)
		for _, sp := range simt.SchedPolicies() {
			shapes = append(shapes, launchShape{"grid2-" + sp.String(),
				simt.Config{Grid: 4, CTASize: 48, SMs: 2, Sched: sp, SchedSeed: 5}})
		}
		for _, shape := range shapes {
			t.Run(k.name+"/"+shape.name, func(t *testing.T) {
				run := func(model simt.Model, workers int) *simt.Result {
					cfg := shape.cfg
					cfg.Kernel, cfg.Seed, cfg.Model, cfg.Workers = k.kernel, 17, model, workers
					res, err := simt.Run(k.mod, cfg)
					if err != nil {
						t.Fatalf("%v, workers %d: %v", model, workers, err)
					}
					return res
				}
				its, stack := run(simt.ModelITS, 1), run(simt.ModelStack, 1)
				if !reflect.DeepEqual(its.Memory, stack.Memory) {
					t.Error("final memory differs between the models")
				}
				if !reflect.DeepEqual(its.Shared, stack.Shared) {
					t.Error("shared segments differ between the models")
				}
				if shape.cfg.SMs > 1 {
					if sharded := run(simt.ModelStack, 2); !reflect.DeepEqual(sharded, stack) {
						t.Error("stack model: sharded run differs from the serial one")
					}
				}
			})
		}
	}
}

// TestStackDivergentCTABarDeadlocks pins the one place a barrier's effect
// depends on the divergence model: both sides of a divergent branch
// arrive at the same ctabar. Under ITS the sides run independently and
// the CTA meets; on the reconvergence stack only the top entry runs, the
// side parked under it never arrives, and the launch fails with a typed
// DeadlockError naming the lanes that did.
func TestStackDivergentCTABarDeadlocks(t *testing.T) {
	mod, err := ir.Parse(`module divbar memwords=64
func @k nregs=4 nfregs=0 {
e:
  tid r0
  and r1, r0, #1
  cbr r1, odd, even
odd:
  ctabar b0
  br done
even:
  ctabar b0
  br done
done:
  st [r0], r1
  exit
}
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simt.Config{Grid: 1, CTASize: ir.WarpWidth}
	if _, err := simt.Run(mod, cfg); err != nil {
		t.Fatalf("ITS: %v", err)
	}
	cfg.Model = simt.ModelStack
	_, err = simt.Run(mod, cfg)
	var de *simt.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("stack model returned %v, want a DeadlockError", err)
	}
	if got := de.BlockedMask(); got != 0xaaaaaaaa {
		t.Errorf("blocked lanes = %08x, want the taken side aaaaaaaa", got)
	}
}
