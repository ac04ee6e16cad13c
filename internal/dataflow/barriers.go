package dataflow

import (
	"specrecon/internal/cfg"
	"specrecon/internal/ir"
)

// NumBarriers returns one more than the highest barrier register index
// used in f (so barrier bitsets are wide enough), at least 1.
func NumBarriers(f *ir.Function) int {
	n := f.MaxBarrier() + 1
	if n < 1 {
		n = 1
	}
	return n
}

// JoinedBarriers implements the paper's equation (1): a forward union
// analysis where JoinBarrier generates joined-ness and WaitBarrier kills
// it. A barrier is "joined" at a point P if some path from program start
// to P contains a JoinBarrier not followed by a WaitBarrier.
//
// includeCancels extends the kill set with CancelBarrier, which the paper
// ignores during initial placement (cancels are not yet inserted) but
// which matters when the analysis is re-run for conflict detection, where
// a live range "extends from the moment threads join the barrier until
// the barrier is cleared either by waiting or exiting threads".
func JoinedBarriers(f *ir.Function, info *cfg.Info, includeCancels bool) *Result {
	return Solve(f, info, joinedProblem(NumBarriers(f), includeCancels))
}

func joinedProblem(nb int, includeCancels bool) Problem {
	return Problem{Dir: Forward, NumBits: nb, Summarize: func(b *ir.Block, gen, kill Bits) {
		for i := range b.Instrs {
			switch in := &b.Instrs[i]; in.Op {
			case ir.OpJoin:
				gen.Set(in.Bar)
				kill.Clear(in.Bar)
			case ir.OpWait, ir.OpWaitN, ir.OpCancel:
				if in.Op != ir.OpCancel || includeCancels {
					gen.Clear(in.Bar)
					kill.Set(in.Bar)
				}
			}
		}
	}}
}

// LiveBarriers implements the paper's equation (2): a backward union
// analysis where WaitBarrier generates liveness and JoinBarrier kills it.
// A barrier is live at P if a WaitBarrier lies on some path from P to the
// end of the program.
func LiveBarriers(f *ir.Function, info *cfg.Info) *Result {
	return Solve(f, info, liveProblem(NumBarriers(f)))
}

func liveProblem(nb int) Problem {
	return Problem{Dir: Backward, NumBits: nb, Summarize: func(b *ir.Block, gen, kill Bits) {
		// Scan backward so the earliest instruction dominates the
		// block summary.
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			switch in := &b.Instrs[i]; in.Op {
			case ir.OpWait, ir.OpWaitN:
				gen.Set(in.Bar)
				kill.Clear(in.Bar)
			case ir.OpJoin:
				gen.Clear(in.Bar)
				kill.Set(in.Bar)
			}
		}
	}}
}

// JoinedAt refines a JoinedBarriers result to instruction granularity:
// the joined set *before* each instruction.
func JoinedAt(f *ir.Function, res *Result, includeCancels bool) *PointSets {
	return refine(f, res, func(set Bits, in *ir.Instr) {
		switch in.Op {
		case ir.OpJoin:
			set.Set(in.Bar)
		case ir.OpWait, ir.OpWaitN:
			set.Clear(in.Bar)
		case ir.OpCancel:
			if includeCancels {
				set.Clear(in.Bar)
			}
		}
	})
}

// PointSets holds one set per instruction of a function, as rows of one
// slab in FuncPoints order.
type PointSets struct {
	*FuncPoints
	w    int
	slab Bits
}

// Before returns the set holding before instruction instr of the block
// with Block.Index block.
func (p *PointSets) Before(block, instr int) Bits {
	i := p.ID(block, instr)
	return p.slab[i*p.w : (i+1)*p.w : (i+1)*p.w]
}

// refine walks a forward result down to instruction granularity: the
// set before a block's first instruction is the block's IN, and before
// each later one the previous set stepped by transfer.
func refine(f *ir.Function, res *Result, transfer func(set Bits, in *ir.Instr)) *PointSets {
	fp := NewFuncPoints(f)
	p := &PointSets{FuncPoints: fp, w: res.w, slab: make(Bits, fp.Total*res.w)}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			row := p.Before(b.Index, i)
			if i == 0 {
				row.Copy(res.In(b.Index))
			} else {
				row.Copy(p.Before(b.Index, i-1))
				transfer(row, &b.Instrs[i-1])
			}
		}
	}
	return p
}

// RegLiveness computes backward liveness of the integer and float
// register files (two independent problems, returned separately). It is
// used by cost models and by sanity checks in tests.
func RegLiveness(f *ir.Function, info *cfg.Info) (ints, floats *Result) {
	return Solve(f, info, regLiveProblem(f.NRegs, tagInt)),
		Solve(f, info, regLiveProblem(f.NFRegs, tagFloat))
}

// regLiveProblem is liveness of one register file of n registers.
func regLiveProblem(n int, file regFileTag) Problem {
	if n < 1 {
		n = 1
	}
	return Problem{Dir: Backward, NumBits: n, Summarize: func(b *ir.Block, gen, kill Bits) {
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			if d, dfile := dstOf(in); dfile == file && d >= 0 {
				gen.Clear(int(d))
				kill.Set(int(d))
			}
			uses, n := usesOf(in, file)
			for _, u := range uses[:n] {
				gen.Set(int(u))
				kill.Clear(int(u))
			}
		}
	}}
}

type regFileTag int

const (
	tagInt regFileTag = iota
	tagFloat
)

// dstOf returns the destination register of in and which file it is in.
func dstOf(in *ir.Instr) (ir.Reg, regFileTag) {
	dsts := ir.OperandFiles(in.Op)
	if dsts.Dst == ir.FileFloat {
		return in.Dst, tagFloat
	}
	if dsts.Dst == ir.FileInt {
		return in.Dst, tagInt
	}
	return ir.NoReg, tagInt
}

// usesOf returns the source registers of in belonging to the given
// file: the first n of uses.
func usesOf(in *ir.Instr, file regFileTag) (uses [3]ir.Reg, n int) {
	sig := ir.OperandFiles(in.Op)
	add := func(r ir.Reg, f ir.OperandFile) {
		if r < 0 {
			return
		}
		if (f == ir.FileInt && file == tagInt) || (f == ir.FileFloat && file == tagFloat) {
			uses[n] = r
			n++
		}
	}
	add(in.A, sig.A)
	if !in.BImm {
		add(in.B, sig.B)
	}
	add(in.C, sig.C)
	return uses, n
}
