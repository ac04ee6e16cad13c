package core

import (
	"fmt"

	"specrecon/internal/ir"
)

// Thread coarsening, paper section 3: "Programs that have a non-nested
// divergent loop may be modified using thread coarsening, i.e. combining
// work from multiple threads into a single thread by converting a loop
// into nested loops which can then be optimized as described above. ...
// We use thread-coarsening ... to create the outer loop that walks over
// multiple materials per thread. Hence, instead of a single variable
// length task per thread, we assign a large number of tasks per thread
// to enable load balancing over time. This transformation also gives us
// the code pattern required for Speculative Reconvergence."
//
// Coarsen rewrites a one-task-per-thread kernel into a kernel where each
// thread executes `factor` consecutive tasks: the body is wrapped in an
// outer loop and every `tid` read becomes the current task id
// (tid*factor + i). Launching the coarsened kernel with threads/factor
// threads computes exactly what the original computes with the original
// launch — same task ids touch the same memory — while creating the
// nested-loop shape the Loop Merge detector needs.

// Coarsen transforms fnName in place by the given factor. The function's
// per-task RNG draws stay per-thread (a coarsened thread consumes one
// stream across its tasks), so kernels whose results depend on the exact
// RNG stream per task will differ; kernels indexing tables and outputs
// by task id are preserved exactly when they draw no randomness, and
// statistically otherwise. The function must not already read `lane`.
func Coarsen(m *ir.Module, fnName string, factor int) error {
	if factor < 2 {
		return fmt.Errorf("coarsen: factor %d < 2", factor)
	}
	f := m.FuncByName(fnName)
	if f == nil {
		return fmt.Errorf("coarsen: function %q missing", fnName)
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpLane {
				return fmt.Errorf("coarsen: %q reads lane; coarsening would change its meaning", fnName)
			}
		}
	}

	oldEntry := f.Entry()

	// Rewrite every tid read into a move from the task register, and
	// every exit into a branch to the task-increment block.
	b := ir.NewBuilder(f)
	taskReg := b.Reg()

	inc := f.NewBlock("coarsen_inc")
	done := f.NewBlock("coarsen_done")
	header := f.NewBlock("coarsen_header")
	entry := f.NewBlock("coarsen_entry")

	for _, blk := range f.Blocks {
		if blk == inc || blk == done || blk == header || blk == entry {
			continue
		}
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if in.Op == ir.OpTid {
				*in = ir.Instr{Op: ir.OpMov, Dst: in.Dst, A: taskReg, B: ir.NoReg, C: ir.NoReg}
			}
		}
		if t := blk.Terminator(); t.Op == ir.OpExit {
			*t = ir.Instr{Op: ir.OpBr, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg}
			blk.Succs = []*ir.Block{inc}
		}
	}

	// coarsen_entry: task = tid*factor; limit = task + factor.
	b.SetBlock(entry)
	tid := b.Tid()
	b.MovTo(taskReg, b.MulI(tid, int64(factor)))
	limit := b.AddI(taskReg, int64(factor))
	b.Br(header)

	// coarsen_header: task < limit ? body : done.
	b.SetBlock(header)
	more := b.SetLT(taskReg, limit)
	b.CBr(more, oldEntry, done)

	// coarsen_inc: task++; loop.
	b.SetBlock(inc)
	b.MovTo(taskReg, b.AddI(taskReg, 1))
	b.Br(header)

	b.SetBlock(done)
	b.Exit()

	// The new entry must be Blocks[0].
	reorderEntryFirst(f, entry)
	f.Reindex()
	return ir.VerifyFunction(f)
}

func reorderEntryFirst(f *ir.Function, entry *ir.Block) {
	idx := -1
	for i, b := range f.Blocks {
		if b == entry {
			idx = i
		}
	}
	if idx <= 0 {
		return
	}
	f.Blocks = append(f.Blocks[idx:idx+1], append(f.Blocks[:idx], f.Blocks[idx+1:]...)...)
}
