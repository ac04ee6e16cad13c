package main

import (
	"fmt"

	"specrecon/internal/ir"
)

// The micro-kernels below each spend at least 80% of their issues in one
// class of instruction (checked against Metrics.OpClassIssues), so a
// change in simt.issue_ns can be located: the issue loop itself (alu),
// the coalescer and cache with one or 32 transactions per instruction
// (mem_*), barrier bookkeeping, or control transfer.

const (
	microThreads = 2 * ir.WarpWidth
	// microTrips iterations of a ~37-instruction body give each kernel
	// about 10^5 issues, tens of milliseconds of host time.
	microTrips = 1500
	// microBody is the number of instructions of the measured class in
	// one loop body, against five of loop overhead.
	microBody = 32
)

// microKernel is one op-class kernel with the class it must be made of.
type microKernel struct {
	name  string // the suffix of its simt.issue_ns.<name> metric
	class string // the Metrics.OpClassIssues key
	mod   *ir.Module
}

// microLoop builds `for i := 0; i < microTrips; i++ { body }` in a fresh
// module and returns it. body emits into the loop block it is given and
// may add blocks, as long as it leaves the builder in the block that
// continues the loop.
func microLoop(name string, memWords int, body func(m *ir.Module, f *ir.Function, b *ir.Builder, tid ir.Reg)) *ir.Module {
	m := ir.NewModule("micro_" + name)
	m.MemWords = memWords
	f := m.NewFunction("kernel")
	b := ir.NewBuilder(f)
	entry, header, loop, done := f.NewBlock("entry"), f.NewBlock("header"), f.NewBlock("loop"), f.NewBlock("done")

	b.SetBlock(entry)
	tid := b.Tid()
	i := b.Reg()
	b.ConstTo(i, 0)
	n := b.Const(microTrips)
	b.Br(header)

	b.SetBlock(header)
	b.CBr(b.SetLT(i, n), loop, done)

	b.SetBlock(loop)
	body(m, f, b, tid)
	b.MovTo(i, b.AddI(i, 1))
	b.Br(header)

	b.SetBlock(done)
	b.Store(tid, 0, i)
	b.Exit()
	return m
}

func microKernels() []microKernel {
	alu := microLoop("alu", microThreads, func(_ *ir.Module, _ *ir.Function, b *ir.Builder, tid ir.Reg) {
		x := tid
		for k := 0; k < microBody/2; k++ {
			x = b.XorI(b.AddI(x, int64(k)), 0x55)
		}
	})
	// Lane l reads word l + 64k: each warp instruction touches two
	// 16-word lines.
	coalesced := microLoop("mem_coalesced", microThreads*(microBody+1), func(_ *ir.Module, _ *ir.Function, b *ir.Builder, tid ir.Reg) {
		for k := 0; k < microBody; k++ {
			b.Load(tid, int64(k*microThreads))
		}
	})
	// Lane l reads word 16l + 1024k: every lane of a warp instruction
	// touches its own line.
	const stride = 16
	scattered := microLoop("mem_scattered", microThreads*stride*(microBody+1), func(_ *ir.Module, _ *ir.Function, b *ir.Builder, tid ir.Reg) {
		addr := b.MulI(tid, stride)
		for k := 0; k < microBody; k++ {
			b.Load(addr, int64(k*microThreads*stride))
		}
	})
	barrier := microLoop("barrier", microThreads, func(_ *ir.Module, _ *ir.Function, b *ir.Builder, _ ir.Reg) {
		bar := b.Barrier()
		for k := 0; k < microBody/2; k++ {
			b.Join(bar)
			b.Wait(bar)
		}
	})
	branch := microLoop("branch", microThreads, func(_ *ir.Module, f *ir.Function, b *ir.Builder, _ ir.Reg) {
		for k := 0; k < microBody; k++ {
			next := f.NewBlock(fmt.Sprintf("hop%d", k))
			b.Br(next)
			b.SetBlock(next)
		}
	})
	call := microLoop("call", microThreads, func(m *ir.Module, _ *ir.Function, b *ir.Builder, _ ir.Reg) {
		leaf := m.NewFunction("leaf")
		lb := ir.NewBuilder(leaf)
		lb.SetBlock(leaf.NewBlock("leaf_entry"))
		lb.Ret()
		for k := 0; k < microBody/2; k++ {
			b.Call("leaf")
		}
	})
	return []microKernel{
		{"alu", "alu", alu},
		{"mem_coalesced", "mem", coalesced},
		{"mem_scattered", "mem", scattered},
		{"barrier", "barrier", barrier},
		{"branch", "control", branch},
		{"call", "control", call},
	}
}

// emptyWords is the memory image of the exit-only kernel: large enough
// that copying, forking and merging it is what a launch costs.
const emptyWords = 64 << 10

// emptyKernel exits at once, so its launch time is setup, fork and
// merge with no issue loop to speak of.
func emptyKernel() *ir.Module {
	m := ir.NewModule("micro_empty")
	m.MemWords = emptyWords
	f := m.NewFunction("kernel")
	b := ir.NewBuilder(f)
	b.SetBlock(f.NewBlock("entry"))
	b.Exit()
	return m
}
