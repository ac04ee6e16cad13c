package ir

import (
	"fmt"
	"slices"
	"sync"
)

// Builder provides a convenient, cursor-based API for constructing
// functions. It allocates fresh registers on demand and keeps the
// function's register-file sizes up to date. The workload kernels in
// internal/workloads and the generated population of internal/corpus
// are written against this API.
//
// A builder lays a function out as Parse does. The blocks of one Blocks
// call share one []Block slab. Emit appends into one instruction slab
// and Br and CBr carve successor lists from one edge slab, each block's
// slice capped at its own end, so a pass that later grows one block
// moves that block alone. Those two slabs are scratch that builders
// hand on to each other: Finish copies every block of the function into
// one exact-size instruction slab and one exact-size edge slab and
// returns the scratch to the pool. A function whose builder is not
// finished is still whole, but its blocks keep the scratch, slack
// included, live.
type Builder struct {
	Fn  *Function
	cur *Block

	nextReg  Reg
	nextFReg Reg
	nextBar  int

	s *builderScratch // taken at the first Emit, handed on by Finish
}

// builderScratch is where a function's instructions and successor
// edges collect until Finish.
type builderScratch struct {
	instrs []Instr
	edges  []*Block
}

// scratches holds the scratch of finished builders.
var scratches sync.Pool

// NewBuilder returns a builder positioned on no block. Fresh registers
// start above the function's current file sizes, so a builder may be used
// to extend an existing function.
func NewBuilder(f *Function) *Builder {
	return &Builder{
		Fn:       f,
		nextReg:  Reg(f.NRegs),
		nextFReg: Reg(f.NFRegs),
		nextBar:  f.MaxBarrier() + 1,
	}
}

// Blocks appends one new empty block per name to the function, all from
// one slab, and returns them in order. The cursor does not move.
func (b *Builder) Blocks(names ...string) []*Block {
	f := b.Fn
	slab := make([]Block, len(names))
	lo := len(f.Blocks)
	f.Blocks = slices.Grow(f.Blocks, len(names))
	for i, name := range names {
		slab[i] = Block{Name: name, Index: lo + i}
		f.Blocks = append(f.Blocks, &slab[i])
	}
	return f.Blocks[lo:len(f.Blocks):len(f.Blocks)]
}

// Finish lays every block of the function out in one exact-size
// instruction slab and one exact-size edge slab, in block order and each
// capped at its own end, and hands the builder's scratch to the next
// builder. Every block the builder emitted into must still be a block of
// the function. The builder stays usable: a later Emit takes scratch
// again.
func (b *Builder) Finish() {
	s := b.s
	if s == nil {
		return
	}
	ni, ne := 0, 0
	for _, blk := range b.Fn.Blocks {
		ni, ne = ni+len(blk.Instrs), ne+len(blk.Succs)
	}
	instrs := make([]Instr, 0, ni)
	edges := make([]*Block, 0, ne)
	for _, blk := range b.Fn.Blocks {
		if n := len(blk.Instrs); n > 0 {
			instrs = append(instrs, blk.Instrs...)
			blk.Instrs = instrs[len(instrs)-n : len(instrs) : len(instrs)]
		}
		if n := len(blk.Succs); n > 0 {
			edges = append(edges, blk.Succs...)
			blk.Succs = edges[len(edges)-n : len(edges) : len(edges)]
		}
	}
	clear(s.instrs)
	clear(s.edges)
	s.instrs, s.edges, b.s = s.instrs[:0], s.edges[:0], nil
	scratches.Put(s)
}

// Block creates a new block and positions the builder on it.
func (b *Builder) Block(name string) *Block {
	blk := b.Fn.NewBlock(name)
	b.cur = blk
	return blk
}

// SetBlock positions the builder on an existing block.
func (b *Builder) SetBlock(blk *Block) { b.cur = blk }

// Current returns the block under the cursor.
func (b *Builder) Current() *Block { return b.cur }

// Reg allocates a fresh integer register.
func (b *Builder) Reg() Reg {
	r := b.nextReg
	b.nextReg++
	if int(b.nextReg) > b.Fn.NRegs {
		b.Fn.NRegs = int(b.nextReg)
	}
	return r
}

// FReg allocates a fresh float register.
func (b *Builder) FReg() Reg {
	r := b.nextFReg
	b.nextFReg++
	if int(b.nextFReg) > b.Fn.NFRegs {
		b.Fn.NFRegs = int(b.nextFReg)
	}
	return r
}

// Barrier allocates a fresh virtual barrier register.
func (b *Builder) Barrier() int {
	n := b.nextBar
	b.nextBar++
	return n
}

// Emit appends a raw instruction to the current block. The block's
// instructions are the tail of the scratch slab; a block re-entered
// after another one, or grown elsewhere since, first moves its
// instructions to the tail.
func (b *Builder) Emit(in Instr) {
	cur := b.cur
	if cur == nil {
		panic("ir: Builder.Emit with no current block")
	}
	s := b.scratch()
	n := len(cur.Instrs)
	if n == 0 || n > len(s.instrs) || &cur.Instrs[0] != &s.instrs[len(s.instrs)-n] {
		if b.Fn.IndexOf(cur) < 0 {
			panic(fmt.Sprintf("ir: Builder.Emit into block %q, which is not a block of %q", cur.Name, b.Fn.Name))
		}
		s.instrs = append(s.instrs, cur.Instrs...)
	}
	s.instrs = append(s.instrs, in)
	cur.Instrs = s.instrs[len(s.instrs)-n-1 : len(s.instrs) : len(s.instrs)]
}

// scratch is the builder's scratch, taken from a finished builder when
// one is pooled.
func (b *Builder) scratch() *builderScratch {
	if b.s == nil {
		b.s, _ = scratches.Get().(*builderScratch)
		if b.s == nil {
			b.s = new(builderScratch)
		}
	}
	return b.s
}

// setSuccs makes the current block's successors the last n edges of the
// scratch.
func (b *Builder) setSuccs(edges []*Block, n int) {
	b.s.edges = edges
	b.cur.Succs = edges[len(edges)-n : len(edges) : len(edges)]
}

// ---- integer ops ----

// Const emits dst = v into a fresh register and returns it.
func (b *Builder) Const(v int64) Reg {
	r := b.Reg()
	b.Emit(Instr{Op: OpConst, Dst: r, A: NoReg, B: NoReg, C: NoReg, Imm: v})
	return r
}

// Mov emits dst = a into a fresh register.
func (b *Builder) Mov(a Reg) Reg { return b.op2(OpMov, a) }

// MovTo emits dst = a into an existing register.
func (b *Builder) MovTo(dst, a Reg) {
	b.Emit(Instr{Op: OpMov, Dst: dst, A: a, B: NoReg, C: NoReg})
}

// ConstTo emits dst = v into an existing register.
func (b *Builder) ConstTo(dst Reg, v int64) {
	b.Emit(Instr{Op: OpConst, Dst: dst, A: NoReg, B: NoReg, C: NoReg, Imm: v})
}

func (b *Builder) op2(op Opcode, a Reg) Reg {
	var r Reg
	if f, _ := op.HasDst(); f == fileFloat {
		r = b.FReg()
	} else {
		r = b.Reg()
	}
	b.Emit(Instr{Op: op, Dst: r, A: a, B: NoReg, C: NoReg})
	return r
}

func (b *Builder) op3(op Opcode, a, bb Reg) Reg {
	var r Reg
	if f, _ := op.HasDst(); f == fileFloat {
		r = b.FReg()
	} else {
		r = b.Reg()
	}
	b.Emit(Instr{Op: op, Dst: r, A: a, B: bb, C: NoReg})
	return r
}

func (b *Builder) op3i(op Opcode, a Reg, imm int64) Reg {
	var r Reg
	if f, _ := op.HasDst(); f == fileFloat {
		r = b.FReg()
	} else {
		r = b.Reg()
	}
	b.Emit(Instr{Op: op, Dst: r, A: a, B: NoReg, C: NoReg, BImm: true, Imm: imm})
	return r
}

// Binary integer operations; the I-suffixed forms take an immediate B.

func (b *Builder) Add(a, c Reg) Reg        { return b.op3(OpAdd, a, c) }
func (b *Builder) AddI(a Reg, v int64) Reg { return b.op3i(OpAdd, a, v) }
func (b *Builder) Sub(a, c Reg) Reg        { return b.op3(OpSub, a, c) }
func (b *Builder) SubI(a Reg, v int64) Reg { return b.op3i(OpSub, a, v) }
func (b *Builder) Mul(a, c Reg) Reg        { return b.op3(OpMul, a, c) }
func (b *Builder) MulI(a Reg, v int64) Reg { return b.op3i(OpMul, a, v) }
func (b *Builder) Div(a, c Reg) Reg        { return b.op3(OpDiv, a, c) }
func (b *Builder) Mod(a, c Reg) Reg        { return b.op3(OpMod, a, c) }
func (b *Builder) ModI(a Reg, v int64) Reg { return b.op3i(OpMod, a, v) }
func (b *Builder) Min(a, c Reg) Reg        { return b.op3(OpMin, a, c) }
func (b *Builder) Max(a, c Reg) Reg        { return b.op3(OpMax, a, c) }
func (b *Builder) And(a, c Reg) Reg        { return b.op3(OpAnd, a, c) }
func (b *Builder) AndI(a Reg, v int64) Reg { return b.op3i(OpAnd, a, v) }
func (b *Builder) Or(a, c Reg) Reg         { return b.op3(OpOr, a, c) }
func (b *Builder) Xor(a, c Reg) Reg        { return b.op3(OpXor, a, c) }
func (b *Builder) XorI(a Reg, v int64) Reg { return b.op3i(OpXor, a, v) }
func (b *Builder) Shl(a, c Reg) Reg        { return b.op3(OpShl, a, c) }
func (b *Builder) ShlI(a Reg, v int64) Reg { return b.op3i(OpShl, a, v) }
func (b *Builder) ShrI(a Reg, v int64) Reg { return b.op3i(OpShr, a, v) }

func (b *Builder) SetEQ(a, c Reg) Reg        { return b.op3(OpSetEQ, a, c) }
func (b *Builder) SetEQI(a Reg, v int64) Reg { return b.op3i(OpSetEQ, a, v) }
func (b *Builder) SetNE(a, c Reg) Reg        { return b.op3(OpSetNE, a, c) }
func (b *Builder) SetNEI(a Reg, v int64) Reg { return b.op3i(OpSetNE, a, v) }
func (b *Builder) SetLT(a, c Reg) Reg        { return b.op3(OpSetLT, a, c) }
func (b *Builder) SetLTI(a Reg, v int64) Reg { return b.op3i(OpSetLT, a, v) }
func (b *Builder) SetLE(a, c Reg) Reg        { return b.op3(OpSetLE, a, c) }
func (b *Builder) SetGT(a, c Reg) Reg        { return b.op3(OpSetGT, a, c) }
func (b *Builder) SetGTI(a Reg, v int64) Reg { return b.op3i(OpSetGT, a, v) }
func (b *Builder) SetGE(a, c Reg) Reg        { return b.op3(OpSetGE, a, c) }
func (b *Builder) SetGEI(a Reg, v int64) Reg { return b.op3i(OpSetGE, a, v) }

// ---- float ops ----

// FConst emits fdst = v into a fresh float register.
func (b *Builder) FConst(v float64) Reg {
	r := b.FReg()
	b.Emit(Instr{Op: OpFConst, Dst: r, A: NoReg, B: NoReg, C: NoReg, FImm: v})
	return r
}

// FConstTo emits fdst = v into an existing float register.
func (b *Builder) FConstTo(dst Reg, v float64) {
	b.Emit(Instr{Op: OpFConst, Dst: dst, A: NoReg, B: NoReg, C: NoReg, FImm: v})
}

// FMovTo emits fdst = fa into an existing float register.
func (b *Builder) FMovTo(dst, a Reg) {
	b.Emit(Instr{Op: OpFMov, Dst: dst, A: a, B: NoReg, C: NoReg})
}

func (b *Builder) op3f(op Opcode, a Reg, v float64) Reg {
	r := b.FReg()
	if f, _ := op.HasDst(); f == fileInt {
		r = b.Reg()
	}
	b.Emit(Instr{Op: op, Dst: r, A: a, B: NoReg, C: NoReg, BImm: true, FImm: v})
	return r
}

func (b *Builder) FAdd(a, c Reg) Reg          { return b.op3(OpFAdd, a, c) }
func (b *Builder) FAddI(a Reg, v float64) Reg { return b.op3f(OpFAdd, a, v) }
func (b *Builder) FSub(a, c Reg) Reg          { return b.op3(OpFSub, a, c) }
func (b *Builder) FSubI(a Reg, v float64) Reg { return b.op3f(OpFSub, a, v) }
func (b *Builder) FMul(a, c Reg) Reg          { return b.op3(OpFMul, a, c) }
func (b *Builder) FMulI(a Reg, v float64) Reg { return b.op3f(OpFMul, a, v) }
func (b *Builder) FDiv(a, c Reg) Reg          { return b.op3(OpFDiv, a, c) }
func (b *Builder) FMinOp(a, c Reg) Reg        { return b.op3(OpFMin, a, c) }
func (b *Builder) FMaxOp(a, c Reg) Reg        { return b.op3(OpFMax, a, c) }
func (b *Builder) FNeg(a Reg) Reg             { return b.op2(OpFNeg, a) }
func (b *Builder) FAbs(a Reg) Reg             { return b.op2(OpFAbs, a) }
func (b *Builder) FSqrt(a Reg) Reg            { return b.op2(OpFSqrt, a) }
func (b *Builder) FExp(a Reg) Reg             { return b.op2(OpFExp, a) }
func (b *Builder) FLog(a Reg) Reg             { return b.op2(OpFLog, a) }
func (b *Builder) FSin(a Reg) Reg             { return b.op2(OpFSin, a) }
func (b *Builder) FCos(a Reg) Reg             { return b.op2(OpFCos, a) }

// FMA emits fdst = a*c + d.
func (b *Builder) FMA(a, c, d Reg) Reg {
	r := b.FReg()
	b.Emit(Instr{Op: OpFMA, Dst: r, A: a, B: c, C: d})
	return r
}

func (b *Builder) FSetLT(a, c Reg) Reg          { return b.op3(OpFSetLT, a, c) }
func (b *Builder) FSetLTI(a Reg, v float64) Reg { return b.op3f(OpFSetLT, a, v) }
func (b *Builder) FSetGT(a, c Reg) Reg          { return b.op3(OpFSetGT, a, c) }
func (b *Builder) FSetGTI(a Reg, v float64) Reg { return b.op3f(OpFSetGT, a, v) }
func (b *Builder) FSetGE(a, c Reg) Reg          { return b.op3(OpFSetGE, a, c) }
func (b *Builder) FSetLE(a, c Reg) Reg          { return b.op3(OpFSetLE, a, c) }
func (b *Builder) ItoF(a Reg) Reg               { return b.op2(OpItoF, a) }
func (b *Builder) FtoI(a Reg) Reg               { return b.op2(OpFtoI, a) }

// ---- divergence sources ----

func (b *Builder) Tid() Reg        { return b.op2(OpTid, NoReg) }
func (b *Builder) Lane() Reg       { return b.op2(OpLane, NoReg) }
func (b *Builder) NumThreads() Reg { return b.op2(OpNumThreads, NoReg) }
func (b *Builder) Rand() Reg       { return b.op2(OpRand, NoReg) }
func (b *Builder) FRand() Reg      { return b.op2(OpFRand, NoReg) }

// ---- memory ----

// Load emits dst = mem[addr+off].
func (b *Builder) Load(addr Reg, off int64) Reg {
	r := b.Reg()
	b.Emit(Instr{Op: OpLoad, Dst: r, A: addr, B: NoReg, C: NoReg, Imm: off})
	return r
}

// FLoad emits fdst = mem[addr+off] interpreted as a float.
func (b *Builder) FLoad(addr Reg, off int64) Reg {
	r := b.FReg()
	b.Emit(Instr{Op: OpFLoad, Dst: r, A: addr, B: NoReg, C: NoReg, Imm: off})
	return r
}

// Store emits mem[addr+off] = v.
func (b *Builder) Store(addr Reg, off int64, v Reg) {
	b.Emit(Instr{Op: OpStore, Dst: NoReg, A: addr, B: v, C: NoReg, Imm: off})
}

// FStore emits mem[addr+off] = fv.
func (b *Builder) FStore(addr Reg, off int64, v Reg) {
	b.Emit(Instr{Op: OpFStore, Dst: NoReg, A: addr, B: v, C: NoReg, Imm: off})
}

// AtomAdd emits dst = old mem[addr+off]; mem[addr+off] += v.
func (b *Builder) AtomAdd(addr Reg, off int64, v Reg) Reg {
	r := b.Reg()
	b.Emit(Instr{Op: OpAtomAdd, Dst: r, A: addr, B: v, C: NoReg, Imm: off})
	return r
}

// FAtomAdd emits fdst = old mem[addr+off]; mem[addr+off] += fv.
func (b *Builder) FAtomAdd(addr Reg, off int64, v Reg) Reg {
	r := b.FReg()
	b.Emit(Instr{Op: OpFAtomAdd, Dst: r, A: addr, B: v, C: NoReg, Imm: off})
	return r
}

// ---- barriers ----

func (b *Builder) Join(bar int) {
	b.Emit(Instr{Op: OpJoin, Dst: NoReg, A: NoReg, B: NoReg, C: NoReg, Bar: bar})
}
func (b *Builder) Wait(bar int) {
	b.Emit(Instr{Op: OpWait, Dst: NoReg, A: NoReg, B: NoReg, C: NoReg, Bar: bar})
}
func (b *Builder) Cancel(bar int) {
	b.Emit(Instr{Op: OpCancel, Dst: NoReg, A: NoReg, B: NoReg, C: NoReg, Bar: bar})
}
func (b *Builder) WaitN(bar int, threshold int64) {
	b.Emit(Instr{Op: OpWaitN, Dst: NoReg, A: NoReg, B: NoReg, C: NoReg, Bar: bar, Imm: threshold})
}
func (b *Builder) Arrived(bar int) Reg {
	r := b.Reg()
	b.Emit(Instr{Op: OpArrived, Dst: r, A: NoReg, B: NoReg, C: NoReg, Bar: bar})
	return r
}
func (b *Builder) WarpSync() { b.Emit(Instr{Op: OpWarpSync, Dst: NoReg, A: NoReg, B: NoReg, C: NoReg}) }

// Warp-synchronous votes over the issuing group.

func (b *Builder) VoteAny(a Reg) Reg { return b.op2(OpVoteAny, a) }
func (b *Builder) VoteAll(a Reg) Reg { return b.op2(OpVoteAll, a) }
func (b *Builder) Ballot(a Reg) Reg  { return b.op2(OpBallot, a) }

// ---- control ----

// Call emits a call to the named function.
func (b *Builder) Call(name string) {
	b.Emit(Instr{Op: OpCall, Dst: NoReg, A: NoReg, B: NoReg, C: NoReg, Callee: name})
}

// Br terminates the current block with an unconditional branch.
func (b *Builder) Br(to *Block) {
	b.Emit(Instr{Op: OpBr, Dst: NoReg, A: NoReg, B: NoReg, C: NoReg})
	b.setSuccs(append(b.s.edges, to), 1)
}

// CBr terminates the current block with a conditional branch: cond != 0
// goes to then, otherwise to els.
func (b *Builder) CBr(cond Reg, then, els *Block) {
	b.Emit(Instr{Op: OpCBr, Dst: NoReg, A: cond, B: NoReg, C: NoReg})
	b.setSuccs(append(b.s.edges, then, els), 2)
}

// Ret terminates the current block with a return.
func (b *Builder) Ret() {
	b.Emit(Instr{Op: OpRet, Dst: NoReg, A: NoReg, B: NoReg, C: NoReg})
	b.cur.Succs = nil
}

// Exit terminates the current block, ending the thread.
func (b *Builder) Exit() {
	b.Emit(Instr{Op: OpExit, Dst: NoReg, A: NoReg, B: NoReg, C: NoReg})
	b.cur.Succs = nil
}

// Predict records a speculative-reconvergence annotation whose region
// starts at the current block and whose reconvergence point is label.
func (b *Builder) Predict(label *Block) {
	b.Fn.Predictions = append(b.Fn.Predictions, Prediction{At: b.cur, Label: label})
}

// PredictThreshold is Predict with a soft-barrier threshold.
func (b *Builder) PredictThreshold(label *Block, threshold int) {
	b.Fn.Predictions = append(b.Fn.Predictions, Prediction{At: b.cur, Label: label, Threshold: threshold})
}

// PredictCall records an interprocedural annotation: the reconvergence
// point is the entry of the named function.
func (b *Builder) PredictCall(callee string) {
	b.Fn.Predictions = append(b.Fn.Predictions, Prediction{At: b.cur, Callee: callee})
}
