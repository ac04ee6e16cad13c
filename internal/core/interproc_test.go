package core

import (
	"testing"

	"specrecon/internal/ir"
	"specrecon/internal/simt"
)

// emitCalleeChain emits n fma/fsqrt rounds over argument register f0
// using only the f1/f2 scratch window, per the calling convention
// (callees must not clobber the caller's high registers).
func emitCalleeChain(b *ir.Builder, n int) {
	if b.Fn.NFRegs < 3 {
		b.Fn.NFRegs = 3
	}
	const x, y, s = ir.Reg(0), ir.Reg(1), ir.Reg(2)
	b.FMovTo(y, x)
	for k := 0; k < n; k++ {
		b.Emit(ir.Instr{Op: ir.OpFMA, Dst: s, A: y, B: y, C: x})
		b.Emit(ir.Instr{Op: ir.OpFAbs, Dst: s, A: s, B: ir.NoReg, C: ir.NoReg})
		b.Emit(ir.Instr{Op: ir.OpFSqrt, Dst: y, A: s, B: ir.NoReg, C: ir.NoReg})
	}
	b.FMovTo(x, y)
}

// buildFigure2c constructs the common-function-call pattern of Figure
// 2(c): both sides of a divergent branch call foo(); the interprocedural
// prediction reconverges at foo's entry.
func buildFigure2c(loop bool) *ir.Module {
	m := ir.NewModule("fig2c")
	m.MemWords = 128

	foo := m.NewFunction("foo")
	{
		fb := ir.NewBuilder(foo)
		blk := foo.NewBlock("foo_entry")
		fb.SetBlock(blk)
		emitCalleeChain(fb, 12)
		fb.Ret()
	}

	f := m.NewFunction("main")
	b := ir.NewBuilder(f)
	// Reserve the callee's f0..f2 argument/scratch window.
	arg := ir.Reg(0)
	for i := 0; i < 3; i++ {
		_ = b.FReg()
	}

	entry := f.NewBlock("entry")
	var header, next *ir.Block
	if loop {
		header = f.NewBlock("header")
		next = f.NewBlock("next")
	}
	split := f.NewBlock("split")
	thn := f.NewBlock("thn")
	els := f.NewBlock("els")
	merge := f.NewBlock("merge")
	done := f.NewBlock("done")

	b.SetBlock(entry)
	tid := b.Tid()
	acc := b.FReg()
	b.FConstTo(acc, 0)
	var i, n ir.Reg
	b.PredictCall("foo")
	if loop {
		i = b.Reg()
		b.ConstTo(i, 0)
		n = b.Const(16)
		b.Br(header)
		b.SetBlock(header)
		b.CBr(b.SetLT(i, n), split, done)
	} else {
		b.Br(split)
	}

	b.SetBlock(split)
	cond := b.FSetLTI(b.FRand(), 0.5)
	b.CBr(cond, thn, els)

	b.SetBlock(thn)
	b.FMovTo(arg, b.FAddI(acc, 1.0))
	b.Call("foo")
	b.FMovTo(acc, b.FAdd(acc, arg))
	b.Br(merge)

	b.SetBlock(els)
	b.FMovTo(arg, b.FAddI(acc, 2.0))
	b.Call("foo")
	b.FMovTo(acc, b.FSub(acc, arg))
	b.Br(merge)

	b.SetBlock(merge)
	if loop {
		b.Br(next)
		b.SetBlock(next)
		b.MovTo(i, b.AddI(i, 1))
		b.Br(header)
	} else {
		b.Br(done)
	}

	b.SetBlock(done)
	b.FStore(tid, 0, acc)
	b.Exit()
	return m
}

// TestInterprocPlacement: the wait lands at the callee entry, the join
// at the region start, rejoins after each call site, cancels at region
// exits.
func TestInterprocPlacement(t *testing.T) {
	m := buildFigure2c(true)
	comp, err := CompilePipeline(m, SpecReconOptions(), unallocated(t, SpecReconOptions()))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	var bspec int = -1
	for _, bi := range comp.Barriers {
		if bi.Kind == KindSpecCall {
			bspec = bi.ID
		}
	}
	if bspec < 0 {
		t.Fatal("no interprocedural barrier created")
	}
	foo := comp.Module.FuncByName("foo")
	main := comp.Module.FuncByName("main")

	if got := findBarrierOps(foo, bspec, ir.OpWait); len(got) != 1 || got[0] != "foo_entry" {
		t.Errorf("interproc wait at %v, want [foo_entry]", got)
	}
	joins := findBarrierOps(main, bspec, ir.OpJoin)
	// Region-start join + rejoin after each of the two call sites.
	if len(joins) != 3 || !contains(joins, "entry") || !contains(joins, "thn") || !contains(joins, "els") {
		t.Errorf("interproc joins at %v, want entry + thn + els", joins)
	}
	if got := findBarrierOps(main, bspec, ir.OpCancel); !contains(got, "done") {
		t.Errorf("interproc cancels at %v, want to include done", got)
	}
	// The rejoin must come right after the call instruction.
	thn := main.BlockByName("thn")
	for i := range thn.Instrs {
		if thn.Instrs[i].Op == ir.OpCall {
			if i+1 >= len(thn.Instrs) || thn.Instrs[i+1].Op != ir.OpJoin || thn.Instrs[i+1].Bar != bspec {
				t.Error("rejoin does not immediately follow the call site")
			}
		}
	}
}

// TestInterprocConvergesCallee: with the annotation, the callee executes
// with (near-)full warps instead of twice per branch side.
func TestInterprocConvergesCallee(t *testing.T) {
	for _, loop := range []bool{false, true} {
		m := buildFigure2c(loop)

		run := func(opts Options) (int64, float64, []uint64) {
			comp, err := Compile(m, opts)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			var issues int64
			var lanes int64
			res, err := simt.Run(comp.Module, simt.Config{
				Kernel: "main", Seed: 11, Strict: true,
				Events: simt.SinkFunc(func(ev simt.Event) {
					if ev.Kind == simt.EvIssue && ev.FnName == "foo" {
						issues++
						for msk := ev.Mask; msk != 0; msk &= msk - 1 {
							lanes++
						}
					}
				}),
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			occ := float64(lanes) / float64(issues) / 32
			return issues, occ, res.Memory
		}

		baseIssues, baseOcc, baseMem := run(BaselineOptions())
		specIssues, specOcc, specMem := run(SpecReconOptions())

		if specOcc <= baseOcc {
			t.Errorf("loop=%v: callee occupancy did not improve: %.2f -> %.2f", loop, baseOcc, specOcc)
		}
		if specIssues >= baseIssues {
			t.Errorf("loop=%v: callee issues did not drop: %d -> %d", loop, baseIssues, specIssues)
		}
		for i := range baseMem {
			if baseMem[i] != specMem[i] {
				t.Fatalf("loop=%v: results differ at word %d", loop, i)
			}
		}
	}
}

// TestInterprocErrors: annotations naming unknown or uncalled functions
// are compile errors.
func TestInterprocErrors(t *testing.T) {
	m := buildFigure2c(false)
	m.FuncByName("main").Predictions[0].Callee = "nonexistent"
	if _, err := Compile(m, SpecReconOptions()); err == nil {
		t.Error("unknown callee should fail compilation")
	}

	m2 := buildFigure2c(false)
	// Add an uncalled function and point the prediction at it.
	g := m2.NewFunction("ghost")
	gb := ir.NewBuilder(g)
	gb.SetBlock(g.NewBlock("g"))
	gb.Ret()
	m2.FuncByName("main").Predictions[0].Callee = "ghost"
	if _, err := Compile(m2, SpecReconOptions()); err == nil {
		t.Error("never-called callee should fail compilation")
	}
}
