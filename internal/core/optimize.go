package core

import (
	"math"
	"specrecon/internal/analyze"

	"specrecon/internal/dataflow"
	"specrecon/internal/ir"
)

// Scalar optimizations: local constant folding and dead code
// elimination. They run before synchronization insertion (barriers make
// instructions "used" in ways liveness cannot see) and exist both as
// genuine cleanups after inlining/unrolling and to keep the kernel
// builders honest — the workloads are tested to be nearly fold-free.

// Optimize runs constant folding and dead-code elimination to a fixed
// point on every function, returning the number of instructions removed
// or rewritten.
func Optimize(m *ir.Module) int {
	total := 0
	for _, f := range m.Funcs {
		for {
			n := foldConstants(f) + eliminateDeadCode(f)
			total += n
			if n == 0 {
				break
			}
		}
	}
	return total
}

// foldConstants rewrites instructions whose operands are known constants
// within a block (a local, flow-insensitive-across-blocks analysis: the
// constant map resets at block entry, which is sound without phi
// tracking).
func foldConstants(f *ir.Function) int {
	changed := 0
	for _, b := range f.Blocks {
		consts := map[ir.Reg]int64{}
		fconsts := map[ir.Reg]float64{}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			sig := ir.OperandFiles(in.Op)

			// Try to materialize B as an immediate when A stays a
			// register (canonicalization that also enables folding).
			if sig.B == ir.FileInt && !in.BImm && sig.BMayImm {
				if v, ok := consts[in.B]; ok {
					in.B = ir.NoReg
					in.BImm = true
					in.Imm = v
					changed++
				}
			}
			if sig.B == ir.FileFloat && !in.BImm && sig.BMayImm {
				if v, ok := fconsts[in.B]; ok {
					in.B = ir.NoReg
					in.BImm = true
					in.FImm = v
					changed++
				}
			}

			// Full fold when every input is constant.
			if folded, ok := tryFold(in, consts, fconsts); ok {
				*in = folded
				changed++
			}

			// Update the constant maps from the (possibly rewritten)
			// instruction.
			switch in.Op {
			case ir.OpConst:
				consts[in.Dst] = in.Imm
			case ir.OpFConst:
				fconsts[in.Dst] = in.FImm
			default:
				if in.Dst >= 0 {
					switch sig.Dst {
					case ir.FileInt:
						delete(consts, in.Dst)
					case ir.FileFloat:
						delete(fconsts, in.Dst)
					}
				}
			}
		}
	}
	return changed
}

// tryFold evaluates in if its operands are constants, producing a const
// instruction for the same destination.
func tryFold(in *ir.Instr, consts map[ir.Reg]int64, fconsts map[ir.Reg]float64) (ir.Instr, bool) {
	sig := ir.OperandFiles(in.Op)
	getI := func(r ir.Reg) (int64, bool) { v, ok := consts[r]; return v, ok }
	getB := func() (int64, bool) {
		if in.BImm {
			return in.Imm, true
		}
		return getI(in.B)
	}
	getFB := func() (float64, bool) {
		if in.BImm {
			return in.FImm, true
		}
		v, ok := fconsts[in.B]
		return v, ok
	}

	mk := func(v int64) ir.Instr {
		return ir.Instr{Op: ir.OpConst, Dst: in.Dst, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: v}
	}
	mkF := func(v float64) ir.Instr {
		return ir.Instr{Op: ir.OpFConst, Dst: in.Dst, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, FImm: v}
	}
	b2i := func(x bool) int64 {
		if x {
			return 1
		}
		return 0
	}

	if sig.A == ir.FileInt && sig.Dst == ir.FileInt {
		a, okA := getI(in.A)
		if !okA {
			return ir.Instr{}, false
		}
		if sig.B == ir.FileNone {
			switch in.Op {
			case ir.OpMov:
				return mk(a), true
			case ir.OpNot:
				return mk(^a), true
			case ir.OpNeg:
				return mk(-a), true
			}
			return ir.Instr{}, false
		}
		bv, okB := getB()
		if !okB {
			return ir.Instr{}, false
		}
		switch in.Op {
		case ir.OpAdd:
			return mk(a + bv), true
		case ir.OpSub:
			return mk(a - bv), true
		case ir.OpMul:
			return mk(a * bv), true
		case ir.OpDiv:
			if bv == 0 {
				return mk(0), true
			}
			return mk(a / bv), true
		case ir.OpMod:
			if bv == 0 {
				return mk(0), true
			}
			return mk(a % bv), true
		case ir.OpMin:
			if a < bv {
				return mk(a), true
			}
			return mk(bv), true
		case ir.OpMax:
			if a > bv {
				return mk(a), true
			}
			return mk(bv), true
		case ir.OpAnd:
			return mk(a & bv), true
		case ir.OpOr:
			return mk(a | bv), true
		case ir.OpXor:
			return mk(a ^ bv), true
		case ir.OpShl:
			return mk(a << (uint64(bv) & 63)), true
		case ir.OpShr:
			return mk(int64(uint64(a) >> (uint64(bv) & 63))), true
		case ir.OpSetEQ:
			return mk(b2i(a == bv)), true
		case ir.OpSetNE:
			return mk(b2i(a != bv)), true
		case ir.OpSetLT:
			return mk(b2i(a < bv)), true
		case ir.OpSetLE:
			return mk(b2i(a <= bv)), true
		case ir.OpSetGT:
			return mk(b2i(a > bv)), true
		case ir.OpSetGE:
			return mk(b2i(a >= bv)), true
		}
		return ir.Instr{}, false
	}

	if sig.A == ir.FileFloat && sig.Dst == ir.FileFloat && sig.C == ir.FileNone {
		a, okA := fconsts[in.A]
		if !okA {
			return ir.Instr{}, false
		}
		if sig.B == ir.FileNone {
			switch in.Op {
			case ir.OpFMov:
				return mkF(a), true
			case ir.OpFNeg:
				return mkF(-a), true
			case ir.OpFAbs:
				return mkF(math.Abs(a)), true
			case ir.OpFSqrt:
				return mkF(math.Sqrt(a)), true
			}
			return ir.Instr{}, false
		}
		bv, okB := getFB()
		if !okB {
			return ir.Instr{}, false
		}
		switch in.Op {
		case ir.OpFAdd:
			return mkF(a + bv), true
		case ir.OpFSub:
			return mkF(a - bv), true
		case ir.OpFMul:
			return mkF(a * bv), true
		case ir.OpFDiv:
			return mkF(a / bv), true
		}
	}
	return ir.Instr{}, false
}

// eliminateDeadCode removes pure instructions whose destinations are
// never used. Memory writes, atomics, barriers, calls, divergence
// sources with no destination effect beyond the register (rand advances
// per-thread RNG state, so it is NOT pure) and terminators are preserved.
func eliminateDeadCode(f *ir.Function) int {
	facts := analyze.NewFacts(nil)
	defer facts.Retire()
	ints, floats := dataflow.RegLiveness(facts.Scratch(), f, facts.CFG(f))

	removed := 0
	for _, b := range f.Blocks {
		// Walk backwards maintaining liveness within the block.
		liveI := ints.Out(b.Index).Clone()
		liveF := floats.Out(b.Index).Clone()
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			sig := ir.OperandFiles(in.Op)
			dead := false
			if isPure(in.Op) && in.Dst >= 0 {
				switch sig.Dst {
				case ir.FileInt:
					dead = !liveI.Has(int(in.Dst))
				case ir.FileFloat:
					dead = !liveF.Has(int(in.Dst))
				}
			}
			if dead {
				b.RemoveAt(i)
				removed++
				continue
			}
			// Standard backward transfer.
			if in.Dst >= 0 {
				switch sig.Dst {
				case ir.FileInt:
					liveI.Clear(int(in.Dst))
				case ir.FileFloat:
					liveF.Clear(int(in.Dst))
				}
			}
			use := func(r ir.Reg, file ir.OperandFile) {
				if r < 0 {
					return
				}
				switch file {
				case ir.FileInt:
					liveI.Set(int(r))
				case ir.FileFloat:
					liveF.Set(int(r))
				}
			}
			use(in.A, sig.A)
			if !in.BImm {
				use(in.B, sig.B)
			}
			use(in.C, sig.C)
		}
	}
	return removed
}

// isPure reports whether an opcode has no effect beyond writing its
// destination register. Rand/frand advance the per-thread RNG stream and
// are deliberately impure; loads are pure (memory is read-only from the
// instruction's perspective) but kept conservative because removing them
// changes cache behaviour the experiments measure.
func isPure(op ir.Opcode) bool {
	sig := ir.OperandFiles(op)
	if sig.Dst == ir.FileNone {
		return false
	}
	if op.IsMemory() || op.IsBarrierOp() || op.IsDivergenceSource() {
		return false
	}
	switch op {
	case ir.OpCall, ir.OpArrived:
		return false
	}
	return !op.IsTerminator()
}
