// Package ir defines the SIMT virtual instruction set used throughout this
// repository: a small register-machine ISA with per-thread integer and
// float register files, a flat global memory, function calls, and
// Volta-style convergence-barrier operations (join/wait/cancel, the BSSY,
// BSYNC and BREAK instructions of the paper's Table 1, plus a first-class
// soft-barrier wait).
//
// A Module holds Functions; a Function holds Blocks in layout order, the
// first of which is the entry block; a Block holds Instrs, the last of
// which must be a terminator, and explicit successor edges. Speculative
// reconvergence annotations (the paper's Predict(<label>) directive and
// reconvergence labels, section 4.1) are carried on the Function as
// Prediction values rather than as instructions, mirroring how the paper's
// compiler preserves them as side metadata through the pipeline.
//
// Calling convention: there are no register windows. By convention a
// caller passes arguments in low registers (r0..r7 / f0..f7) and keeps its
// own live state in high registers; a callee may clobber the low half of
// both files. The workloads in internal/workloads follow this convention.
package ir

import "fmt"

// Reg is a virtual register index within one of the two register files.
// Which file an operand uses is determined by its opcode's signature.
type Reg int16

// NoReg marks an unused register operand.
const NoReg Reg = -1

// WarpWidth is the number of lanes in a warp. The paper targets NVIDIA
// hardware, where warps are 32 threads wide.
const WarpWidth = 32

// NumBarrierRegs is the number of physical barrier registers per warp.
// Volta provides 16; the barrier allocator in internal/core maps virtual
// barriers onto this budget.
const NumBarrierRegs = 16

// Instr is one instruction. Operand meaning depends on Op; see the opInfo
// table in op.go. Unused fields are zero / NoReg.
type Instr struct {
	Op      Opcode
	Dst     Reg
	A, B, C Reg
	BImm    bool    // B operand is the immediate Imm (or FImm for float ops)
	Imm     int64   // integer immediate / memory offset / waitn threshold
	FImm    float64 // float immediate
	Bar     int     // barrier register (virtual until allocation)
	Callee  string  // call target
}

// Block is a basic block: a straight-line instruction sequence ending in a
// terminator, plus explicit successor edges.
type Block struct {
	Name   string
	Instrs []Instr
	Succs  []*Block

	// Index is the block's position in Function.Blocks; maintained by
	// Function.Reindex and used as a dense key by the analyses.
	Index int
}

// Terminator returns the block's final instruction. It panics on an empty
// block; the verifier rejects those.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		panic(fmt.Sprintf("ir: block %q has no instructions", b.Name))
	}
	return &b.Instrs[len(b.Instrs)-1]
}

// InsertAt inserts instr at position i (0 = block top).
func (b *Block) InsertAt(i int, instr Instr) {
	b.Instrs = append(b.Instrs, Instr{})
	copy(b.Instrs[i+1:], b.Instrs[i:])
	b.Instrs[i] = instr
}

// InsertTop inserts instr at the top of the block.
func (b *Block) InsertTop(instr Instr) { b.InsertAt(0, instr) }

// InsertBeforeTerminator inserts instr just before the terminator.
func (b *Block) InsertBeforeTerminator(instr Instr) {
	b.InsertAt(len(b.Instrs)-1, instr)
}

// RemoveAt removes the instruction at position i.
func (b *Block) RemoveAt(i int) {
	b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
}

// Prediction is one speculative-reconvergence annotation (paper section
// 4.1). At marks the start of the prediction region — the point where
// threads become candidates for reconvergence. Exactly one of Label and
// Callee is set: Label is a block of the same function marking the
// proposed reconvergence point; Callee names a function whose entry is the
// reconvergence point (the interprocedural variant of section 4.4).
// Threshold, when non-zero, requests a soft barrier (section 4.6) that
// releases once Threshold lanes have collected.
type Prediction struct {
	At        *Block
	Label     *Block
	Callee    string
	Threshold int
}

// Function is a procedure in the virtual ISA. Blocks[0] is the entry.
type Function struct {
	Name        string
	Blocks      []*Block
	NRegs       int // size of the integer register file this function needs
	NFRegs      int // size of the float register file
	Predictions []Prediction
}

// NewBlock appends a new empty block with the given name and returns it.
func (f *Function) NewBlock(name string) *Block {
	b := &Block{Name: name, Index: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Reindex re-establishes Block.Index after blocks were inserted or removed.
// It writes only the indexes that are wrong, so reading a function whose
// indexes already hold (an analysis of a module shared between
// goroutines) writes nothing.
func (f *Function) Reindex() {
	for i, b := range f.Blocks {
		if b.Index != i {
			b.Index = i
		}
	}
}

// Entry returns the function's entry block.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		panic(fmt.Sprintf("ir: function %q has no blocks", f.Name))
	}
	return f.Blocks[0]
}

// BlockByName returns the block with the given name, or nil.
func (f *Function) BlockByName(name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// NumInstrs returns the total instruction count of the function.
func (f *Function) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// MaxBarrier returns the highest barrier register index referenced by the
// function, or -1 if none.
func (f *Function) MaxBarrier() int {
	max := -1
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op.IsBarrierOp() && in.Bar > max {
				max = in.Bar
			}
		}
	}
	return max
}

// Module is a compilation unit: a set of functions plus launch defaults.
type Module struct {
	Name  string
	Funcs []*Function

	// MemWords is the size of global memory in 64-bit words that kernels
	// of this module expect; the simulator allocates at least this much.
	MemWords int

	// SharedWords is the size of the per-CTA shared-memory segment in
	// 64-bit words (the static shared allocation of the kernel). Zero
	// means the module uses no shared memory; the simulator rejects
	// shared-memory opcodes when no segment exists.
	SharedWords int
}

// NewModule returns an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name}
}

// NewFunction appends a new empty function and returns it.
func (m *Module) NewFunction(name string) *Function {
	f := &Function{Name: name}
	m.Funcs = append(m.Funcs, f)
	return f
}

// FuncByName returns the function with the given name, or nil.
func (m *Module) FuncByName(name string) *Function {
	if i := m.FuncIndex(name); i >= 0 {
		return m.Funcs[i]
	}
	return nil
}

// FuncIndex returns the position in Funcs of the function with the
// given name, or -1.
func (m *Module) FuncIndex(name string) int {
	for i, f := range m.Funcs {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// NumInstrs returns the total instruction count across all functions.
func (m *Module) NumInstrs() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// NumBarrierOps returns the number of barrier operations (join, wait,
// thresholded wait, cancel, arrived) across all functions.
func (m *Module) NumBarrierOps() int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op.IsBarrierOp() {
					n++
				}
			}
		}
	}
	return n
}

// MaxRegs returns the largest integer and float register file sizes
// required by any function in the module.
func (m *Module) MaxRegs() (nregs, nfregs int) {
	for _, f := range m.Funcs {
		if f.NRegs > nregs {
			nregs = f.NRegs
		}
		if f.NFRegs > nfregs {
			nfregs = f.NFRegs
		}
	}
	return nregs, nfregs
}

// Clone returns a deep copy of the module. Passes mutate IR in place, so
// experiment harnesses clone the pristine module before each variant.
func (m *Module) Clone() *Module {
	out := &Module{Name: m.Name, MemWords: m.MemWords, SharedWords: m.SharedWords}
	for _, f := range m.Funcs {
		out.Funcs = append(out.Funcs, f.Clone())
	}
	return out
}

// IndexOf returns b's position in f.Blocks, or -1 when b is nil or not
// a block of f. Block.Index is that position whenever f.Blocks holds b
// there, which one comparison checks; a stale Index falls back to a
// search, so the answer never depends on Reindex having run.
func (f *Function) IndexOf(b *Block) int {
	if b != nil && uint(b.Index) < uint(len(f.Blocks)) && f.Blocks[b.Index] == b {
		return b.Index
	}
	for i, fb := range f.Blocks {
		if fb == b {
			return i
		}
	}
	return -1
}

// Clone returns a deep copy of the function, remapping successor edges and
// prediction block references onto the new blocks. The new blocks and
// their edge lists are each one allocation; every block owns its
// instruction array, as passes grow and shrink them independently.
func (f *Function) Clone() *Function {
	nf := &Function{
		Name:   f.Name,
		NRegs:  f.NRegs,
		NFRegs: f.NFRegs,
		Blocks: make([]*Block, len(f.Blocks)),
	}
	blocks := make([]Block, len(f.Blocks))
	edges := 0
	for i, b := range f.Blocks {
		blocks[i] = Block{Name: b.Name, Index: i, Instrs: append([]Instr(nil), b.Instrs...)}
		nf.Blocks[i] = &blocks[i]
		edges += len(b.Succs)
	}
	// remap is the clone's block at b's position; nil for a block that
	// is not f's.
	remap := func(b *Block) *Block {
		if i := f.IndexOf(b); i >= 0 {
			return nf.Blocks[i]
		}
		return nil
	}
	succs := make([]*Block, 0, edges)
	for i, b := range f.Blocks {
		for _, s := range b.Succs {
			succs = append(succs, remap(s))
		}
		n := len(b.Succs)
		if n > 0 {
			nf.Blocks[i].Succs = succs[len(succs)-n : len(succs) : len(succs)]
		}
	}
	for _, p := range f.Predictions {
		nf.Predictions = append(nf.Predictions, Prediction{
			At: remap(p.At), Label: remap(p.Label), Callee: p.Callee, Threshold: p.Threshold,
		})
	}
	return nf
}
