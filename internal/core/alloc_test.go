package core

import (
	"strings"
	"testing"

	"specrecon/internal/ir"
	"specrecon/internal/simt"
)

// TestAllocationStaysWithinBudget: every compiled workload-scale module
// must land on the 16 physical barrier registers.
func TestAllocationStaysWithinBudget(t *testing.T) {
	m := buildListing1(64, 8)
	comp, err := Compile(m, SpecReconOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range comp.Module.Funcs {
		if got := f.MaxBarrier(); got >= ir.NumBarrierRegs {
			t.Errorf("func %q uses barrier b%d beyond the %d physical registers", f.Name, got, ir.NumBarrierRegs)
		}
	}
	if len(comp.BarrierAssignment) == 0 {
		t.Error("no assignment recorded")
	}
}

// TestAssignmentIsNeverNil: a build with nothing to color — no
// barrier, or no alloc pass — still records an empty, non-nil
// assignment.
func TestAssignmentIsNeverNil(t *testing.T) {
	uniform, err := ir.Parse(uniformKernel)
	if err != nil {
		t.Fatal(err)
	}
	spec := SpecReconOptions()
	for _, tc := range []struct {
		m    *ir.Module
		opts Options
		pipe *Pipeline
	}{{uniform, BaselineOptions(), PipelineFor(BaselineOptions())}, {buildListing1(64, 8), spec, unallocated(t, spec)}} {
		comp, err := CompilePipeline(tc.m, tc.opts, tc.pipe)
		if err != nil {
			t.Fatal(err)
		}
		if comp.BarrierAssignment == nil || len(comp.BarrierAssignment) != 0 {
			t.Errorf("%s: assignment %#v, want an empty map", tc.m.Name, comp.BarrierAssignment)
		}
	}
}

// TestAllocationPreservesSemantics: the allocated module behaves exactly
// like the virtual-barrier module.
func TestAllocationPreservesSemantics(t *testing.T) {
	m := buildListing1(96, 10)
	virt, err := CompilePipeline(m, SpecReconOptions(), unallocated(t, SpecReconOptions()))
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := Compile(m, SpecReconOptions())
	if err != nil {
		t.Fatal(err)
	}
	rv, err := simt.Run(virt.Module, simt.Config{Kernel: "kernel", Seed: 8, Strict: true})
	if err != nil {
		t.Fatalf("virtual-barrier run: %v", err)
	}
	ra, err := simt.Run(alloc.Module, simt.Config{Kernel: "kernel", Seed: 8, Strict: true})
	if err != nil {
		t.Fatalf("allocated run: %v", err)
	}
	if rv.Metrics.Issues != ra.Metrics.Issues {
		t.Errorf("issue counts differ: %d vs %d", rv.Metrics.Issues, ra.Metrics.Issues)
	}
	for i := range rv.Memory {
		if rv.Memory[i] != ra.Memory[i] {
			t.Fatalf("memory differs at word %d", i)
		}
	}
}

// TestAllocationReusesRegisters: two barriers with disjoint live ranges
// share a physical register.
func TestAllocationReusesRegisters(t *testing.T) {
	m := ir.NewModule("reuse")
	m.MemWords = 64
	f := m.NewFunction("kernel")
	b := ir.NewBuilder(f)
	e := f.NewBlock("e")
	mid := f.NewBlock("mid")
	end := f.NewBlock("end")

	b.SetBlock(e)
	tid := b.Tid()
	_ = tid
	// Barrier 0: joined and waited entirely within the first block pair.
	b.Join(0)
	b.Wait(0)
	b.Br(mid)

	b.SetBlock(mid)
	// Barrier 1: disjoint range.
	b.Join(1)
	b.Wait(1)
	b.Br(end)

	b.SetBlock(end)
	b.Exit()

	comp, err := Compile(m, Options{ThresholdOverride: -1})
	if err != nil {
		t.Fatal(err)
	}
	if comp.BarrierAssignment[0] != comp.BarrierAssignment[1] {
		t.Errorf("disjoint barriers got distinct registers %d/%d; expected reuse",
			comp.BarrierAssignment[0], comp.BarrierAssignment[1])
	}
}

// TestAllocationKeepsOverlappingApart: overlapping ranges must differ.
func TestAllocationKeepsOverlappingApart(t *testing.T) {
	m := ir.NewModule("overlap")
	m.MemWords = 64
	f := m.NewFunction("kernel")
	b := ir.NewBuilder(f)
	e := f.NewBlock("e")
	end := f.NewBlock("end")

	b.SetBlock(e)
	b.Join(0)
	b.Join(1)
	b.Wait(0)
	b.Wait(1)
	b.Br(end)
	b.SetBlock(end)
	b.Exit()

	comp, err := Compile(m, Options{ThresholdOverride: -1})
	if err != nil {
		t.Fatal(err)
	}
	if comp.BarrierAssignment[0] == comp.BarrierAssignment[1] {
		t.Error("overlapping barriers share a physical register")
	}
}

// TestAllocationOverflowIsAnError: more than 16 simultaneously live
// barriers cannot be colored.
func TestAllocationOverflowIsAnError(t *testing.T) {
	m := ir.NewModule("spill")
	m.MemWords = 64
	f := m.NewFunction("kernel")
	b := ir.NewBuilder(f)
	e := f.NewBlock("e")
	end := f.NewBlock("end")

	b.SetBlock(e)
	n := ir.NumBarrierRegs + 1
	for i := 0; i < n; i++ {
		b.Join(i)
	}
	for i := 0; i < n; i++ {
		b.Wait(i)
	}
	b.Br(end)
	b.SetBlock(end)
	b.Exit()

	_, err := Compile(m, Options{ThresholdOverride: -1})
	if err == nil || !strings.Contains(err.Error(), "barrier allocation failed") {
		t.Fatalf("want allocation failure, got %v", err)
	}
}

// TestCrossCallInterference: a barrier live across a call must not share
// a register with barriers the callee uses.
func TestCrossCallInterference(t *testing.T) {
	m := ir.NewModule("xcall")
	m.MemWords = 64

	callee := m.NewFunction("leaf")
	{
		cb := ir.NewBuilder(callee)
		blk := callee.NewBlock("leaf_entry")
		cb.SetBlock(blk)
		cb.Join(1)
		cb.Wait(1)
		cb.Ret()
	}

	f := m.NewFunction("kernel")
	b := ir.NewBuilder(f)
	e := f.NewBlock("e")
	end := f.NewBlock("end")
	b.SetBlock(e)
	b.Join(0)
	b.Call("leaf") // barrier 0 is live across this call
	b.Wait(0)
	b.Br(end)
	b.SetBlock(end)
	b.Exit()

	comp, err := Compile(m, Options{ThresholdOverride: -1})
	if err != nil {
		t.Fatal(err)
	}
	if comp.BarrierAssignment[0] == comp.BarrierAssignment[1] {
		t.Error("barrier live across a call shares a register with the callee's barrier")
	}
}

// TestAllWorkloadStyleKernelsAllocate compiles a batch of representative
// kernels and confirms allocation succeeds with plausibly few registers.
func TestAllWorkloadStyleKernelsAllocate(t *testing.T) {
	mods := []*ir.Module{
		buildListing1(64, 8),
		buildLoopMergeKernel(8, 2),
		buildFigure2c(true),
	}
	for _, m := range mods {
		comp, err := Compile(m, SpecReconOptions())
		if err != nil {
			t.Errorf("%s: %v", m.Name, err)
			continue
		}
		maxPhys := -1
		for _, phys := range comp.BarrierAssignment {
			if phys > maxPhys {
				maxPhys = phys
			}
		}
		if maxPhys >= ir.NumBarrierRegs {
			t.Errorf("%s: allocation exceeded budget (%d)", m.Name, maxPhys)
		}
	}
}
