package simt

import (
	"testing"
)

// TestStackModelBasics: straight-line and divergent kernels run and
// produce the same results as ITS.
func TestStackModelBasics(t *testing.T) {
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
	its := run(t, m, Config{})
	stack := run(t, m, Config{Model: ModelStack})
	for i := range its.Memory {
		if its.Memory[i] != stack.Memory[i] {
			t.Fatalf("stack model diverges from ITS at word %d", i)
		}
	}
}

// TestStackModelReconverges: after the post-dominator, lanes execute
// together again — the entry at the merge block carries the full warp.
func TestStackModelReconverges(t *testing.T) {
	m := asm(t, `module t memwords=64
func @k nregs=3 nfregs=0 {
e:
  tid r0
  and r1, r0, #1
  cbr r1, a, b
a:
  const r2, #1
  br merge
b:
  const r2, #2
  br merge
merge:
  st [r0], r2
  exit
}
`)
	var mergeMasks []uint32
	run(t, m, Config{Model: ModelStack, Events: SinkFunc(func(ev Event) {
		if ev.Kind == EvIssue && ev.BlockName == "merge" && ev.Ins == 0 {
			mergeMasks = append(mergeMasks, ev.Mask)
		}
	})})
	if len(mergeMasks) != 1 || mergeMasks[0] != 0xffffffff {
		t.Fatalf("merge masks = %#x, want one full-warp issue", mergeMasks)
	}
}

// TestStackModelNestedDivergence: nesting reconverges inside out.
func TestStackModelNestedDivergence(t *testing.T) {
	m := asm(t, `module t memwords=64
func @k nregs=4 nfregs=0 {
e:
  tid r0
  and r1, r0, #1
  cbr r1, outer_a, outer_merge
outer_a:
  and r2, r0, #2
  cbr r2, inner_a, inner_merge
inner_a:
  const r3, #5
  br inner_merge
inner_merge:
  br outer_merge
outer_merge:
  st [r0], r0
  exit
}
`)
	var outerMasks []uint32
	run(t, m, Config{Model: ModelStack, Events: SinkFunc(func(ev Event) {
		if ev.Kind == EvIssue && ev.BlockName == "outer_merge" && ev.Ins == 0 {
			outerMasks = append(outerMasks, ev.Mask)
		}
	})})
	if len(outerMasks) != 1 || outerMasks[0] != 0xffffffff {
		t.Fatalf("outer merge masks = %#x, want one full-warp issue", outerMasks)
	}
}

// TestStackModelIgnoresBarriers: barrier instructions are no-ops, so a
// kernel that would deadlock without them still completes, and
// speculative reconvergence has no effect on efficiency.
func TestStackModelIgnoresBarriers(t *testing.T) {
	m := asm(t, `module t memwords=64
func @k nregs=2 nfregs=0 {
e:
  tid r0
  join b0
  wait b0
  waitn b1, 16
  cancel b0
  warpsync
  const r1, #1
  st [r0], r1
  exit
}
`)
	res := run(t, m, Config{Model: ModelStack, Strict: true})
	for i := 0; i < 32; i++ {
		if res.Memory[i] != 1 {
			t.Fatalf("lane %d blocked on a barrier under the stack model", i)
		}
	}
	if res.Metrics.BarrierWaits != 0 {
		t.Errorf("stack model recorded %d barrier waits", res.Metrics.BarrierWaits)
	}
}

// TestStackModelLoopTripDivergence: a divergent-trip loop serializes the
// straggler tail exactly like PDOM synchronization.
func TestStackModelLoopTripDivergence(t *testing.T) {
	m := asm(t, `module t memwords=64
func @k nregs=3 nfregs=0 {
e:
  tid r0
  mov r1, r0
  br hdr
hdr:
  setgt r2, r1, #0
  cbr r2, body, done
body:
  sub r1, r1, #1
  br hdr
done:
  st [r0], r1
  exit
}
`)
	its := run(t, m, Config{})
	stack := run(t, m, Config{Model: ModelStack})
	for i := range its.Memory {
		if its.Memory[i] != stack.Memory[i] {
			t.Fatalf("results differ at %d", i)
		}
	}
	// The imbalanced loop leaves both models well below full efficiency.
	if eff := stack.Metrics.SIMTEfficiency(); eff > 0.9 {
		t.Errorf("stack-model efficiency %.2f suspiciously high for an imbalanced loop", eff)
	}
}

// TestStackModelCalls: divergence inside a callee reconverges inside the
// callee; calls work from diverged entries.
func TestStackModelCalls(t *testing.T) {
	m := asm(t, `module t memwords=64
func @leaf nregs=8 nfregs=0 {
l:
  and r6, r7, #1
  cbr r6, add1, add2
add1:
  add r7, r7, #100
  br out
add2:
  add r7, r7, #200
  br out
out:
  ret
}
func @k nregs=8 nfregs=0 {
e:
  tid r0
  mov r7, r0
  call @leaf
  st [r0], r7
  exit
}
`)
	its := run(t, m, Config{Kernel: "k"})
	stack := run(t, m, Config{Kernel: "k", Model: ModelStack})
	for i := 0; i < 32; i++ {
		if its.Memory[i] != stack.Memory[i] {
			t.Fatalf("call results differ at %d: %d vs %d", i, its.Memory[i], stack.Memory[i])
		}
	}
}

// TestStackMatchesITSOnRandomControlFlow: both engines compute identical
// results on a kernel mixing loops, nested branches and calls.
func TestStackMatchesITSOnRandomControlFlow(t *testing.T) {
	m := asm(t, RandomControlFlowKernel)
	its := run(t, m, Config{Kernel: "k", Seed: 17})
	stack := run(t, m, Config{Kernel: "k", Seed: 17, Model: ModelStack})
	for i := range its.Memory {
		if its.Memory[i] != stack.Memory[i] {
			t.Fatalf("engines disagree at word %d: %#x vs %#x", i, its.Memory[i], stack.Memory[i])
		}
	}
}
