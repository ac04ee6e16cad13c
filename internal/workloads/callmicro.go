package workloads

import (
	"specrecon/internal/ir"
)

// callmicro is the common-function-call microbenchmark of Figure 2(c).
// The paper: "We did not find any applications that exhibit the common
// function call pattern; instead, we validated this pattern using
// microbenchmarks."
//
// Inside a loop, a divergent branch leads to two different paths; both
// eventually call the same expensive function shade() from different call
// sites, so threads execute the function body serially under PDOM
// reconvergence. The interprocedural annotation (PredictCall) makes all
// threads reconverge at shade's entry.
const callmicroShadeCost = 24

func buildCallMicro(cfg BuildConfig) *Instance {
	cfg = cfg.withDefaults(24)

	m := ir.NewModule("callmicro")
	m.MemWords = cfg.Threads + 8

	// shade(): the expensive common callee. Argument and result live in
	// f0 per the low-register calling convention; the body keeps its
	// temporaries in the f1/f2 scratch window so callers only need to
	// avoid f0..f2.
	shade := m.NewFunction("shade")
	{
		sb := ir.NewBuilder(shade)
		body := shade.NewBlock("shade_entry")
		sb.SetBlock(body)
		emitCalleeFlops(sb, callmicroShadeCost)
		sb.Ret()
		sb.Finish()
	}

	f := m.NewFunction("callmicro_kernel")
	b := ir.NewBuilder(f)
	// Reserve f0..f2: f0 is the shade() argument/result, f1/f2 its
	// scratch window.
	arg := ir.Reg(0)
	for i := 0; i < 3; i++ {
		_ = b.FReg()
	}

	bl := b.Blocks("entry", "header", "split", "then_path", "else_path", "merge", "done")
	entry, header, split, thenPath, elsePath, merge, done := bl[0], bl[1], bl[2], bl[3], bl[4], bl[5], bl[6]

	b.SetBlock(entry)
	tid := b.Tid()
	i := b.Reg()
	b.ConstTo(i, 0)
	n := b.Const(int64(cfg.Tasks))
	acc := b.FReg()
	b.FConstTo(acc, 0)
	// Interprocedural prediction: reconverge at shade's entry.
	b.PredictCall("shade")
	b.Br(header)

	b.SetBlock(header)
	more := b.SetLT(i, n)
	b.CBr(more, split, done)

	b.SetBlock(split)
	cond := b.FSetLTI(b.FRand(), 0.5)
	b.CBr(cond, thenPath, elsePath)

	// Taken path: a little prep, then shade(). The accumulator update
	// is contractive so results stay finite over any task count.
	b.SetBlock(thenPath)
	b.FMovTo(arg, b.FAddI(acc, 1.0))
	b.Call("shade")
	b.FMovTo(acc, b.FAdd(b.FMulI(acc, 0.5), b.FMulI(arg, 0.25)))
	b.Br(merge)

	// Not-taken path: different prep, then the same shade().
	b.SetBlock(elsePath)
	b.FMovTo(arg, b.FMulI(acc, 0.5))
	b.FMovTo(arg, b.FAddI(arg, 2.0))
	b.Call("shade")
	b.FMovTo(acc, b.FSub(b.FMulI(acc, 0.5), b.FMulI(arg, 0.25)))
	b.Br(merge)

	b.SetBlock(merge)
	b.MovTo(i, b.AddI(i, 1))
	b.Br(header)

	b.SetBlock(done)
	b.FStore(tid, 0, acc)
	b.Exit()
	b.Finish()

	mem := make([]uint64, m.MemWords)
	return &Instance{Module: m, Kernel: f.Name, Threads: cfg.Threads, Memory: mem, Seed: cfg.Seed}
}

func init() {
	register(&Workload{
		Name:        "callmicro",
		Description: "Microbenchmark for the common-function-call pattern of Figure 2(c): both sides of a divergent branch call the same expensive function.",
		Pattern:     "common-call",
		Annotated:   true,
		BuildFn:     buildCallMicro,
	})
}
