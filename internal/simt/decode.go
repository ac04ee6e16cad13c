package simt

import (
	"specrecon/internal/ir"
)

// Decode-time side tables. The issue loop runs once per warp instruction
// — hundreds of thousands of times per experiment — so everything that
// can be computed from the static module is resolved once at launch and
// looked up by PC afterwards. A PC is the dense static-instruction index
// of BuildPCTable — functions, then blocks, then instructions, in layout
// order — so unsigned PC order is (fn, blk, ins) order, pc+1 is the next
// instruction of the same block, and a PC indexes the decode table
// directly: fetching an instruction is one load.

// noPC marks an absent PC: an unresolved callee entry, or a stack entry
// with no reconvergence point.
const noPC = ^uint32(0)

// instrMeta is the decoded form of one static instruction.
type instrMeta struct {
	in           *ir.Instr
	latency      int64 // base issue cost, from the opcode table
	fn, blk, ins int32
	blkID        int32 // dense block index (Metrics.blockVisits)
	// succ0 is the PC control transfers to: the br target, the cbr
	// taken target, or the callee's entry (noPC for a call whose callee
	// does not resolve). succ1 is the cbr fall-through target.
	succ0, succ1 uint32
	callee       int32     // resolved function index for OpCall, else -1
	class        OpClassID // reporting class for the metrics counters
	isMem        bool      // accesses global memory (coalescing applies)
}

// decodeTable is the module's launch-invariant decode state, shared
// read-only by every SM of a launch.
type decodeTable struct {
	meta []instrMeta // indexed by PC
	// blkBase[fn] is function fn's first dense block index (one trailing
	// entry holds the block count); blkPC[blkBase[fn]+blk] is the PC of
	// the block's first instruction.
	blkBase []int32
	blkPC   []uint32
}

// blockStart returns the PC of the first instruction of block blk of
// function fn.
func (d *decodeTable) blockStart(fn, blk int) uint32 {
	return d.blkPC[int(d.blkBase[fn])+blk]
}

// names returns the function and block names of a decoded instruction,
// for diagnostics. They alias the module's own strings.
func (s *sim) names(im *instrMeta) (fn, blk string) {
	f := s.mod.Funcs[im.fn]
	return f.Name, f.Blocks[im.blk].Name
}

// eventScratch is what an SM needs once it has a sink to report to.
type eventScratch struct {
	// ev is the one Event the SM's sinks are shown: event and releaseEvent
	// build each event here, and every sink is handed its address.
	ev Event
	// names, indexed by instrMeta.blkID, keeps what names returns for each
	// block one load from an event's instruction, where names itself takes
	// three dependent ones through the module.
	names []blockNames
}

type blockNames struct{ fn, blk string }

// scratch returns s.evs, which the SM's first event builds.
func (s *sim) scratch() *eventScratch {
	if s.evs == nil {
		s.evs = &eventScratch{names: make([]blockNames, len(s.blkPC))}
		for fi, f := range s.mod.Funcs {
			for bi, b := range f.Blocks {
				s.evs.names[int(s.blkBase[fi])+bi] = blockNames{f.Name, b.Name}
			}
		}
	}
	return s.evs
}

// walkPCs visits every static instruction of the module in dense-PC
// order. It is the one enumeration behind both BuildPCTable and the
// decode table, so an Event.PC always indexes either.
func walkPCs(m *ir.Module, visit func(ref PCRef, b *ir.Block)) {
	for fi, f := range m.Funcs {
		for bi, b := range f.Blocks {
			for ii := range b.Instrs {
				visit(PCRef{Fn: int32(fi), Blk: int32(bi), Ins: int32(ii)}, b)
			}
		}
	}
}

// buildDecode decodes every instruction of the module. An OpCall whose
// callee does not resolve keeps callee = -1; the issue loop then reports
// the same runtime error the interpreter always raised, so decode stays
// infallible.
func buildDecode(m *ir.Module) *decodeTable {
	d := &decodeTable{blkBase: make([]int32, len(m.Funcs)+1)}
	fnIndex := make(map[string]int32, len(m.Funcs))
	for fi, f := range m.Funcs {
		fnIndex[f.Name] = int32(fi)
		d.blkBase[fi+1] = d.blkBase[fi] + int32(len(f.Blocks))
	}
	d.blkPC = make([]uint32, d.blkBase[len(m.Funcs)])
	d.meta = make([]instrMeta, m.NumInstrs())
	pc := uint32(0)
	walkPCs(m, func(ref PCRef, b *ir.Block) {
		in := &b.Instrs[ref.Ins]
		d.meta[pc] = instrMeta{
			in:      in,
			latency: int64(in.Op.Latency()),
			fn:      ref.Fn,
			blk:     ref.Blk,
			ins:     ref.Ins,
			blkID:   d.blkBase[ref.Fn] + ref.Blk,
			succ0:   noPC,
			succ1:   noPC,
			callee:  -1,
			class:   OpClassOf(in.Op),
			isMem:   in.Op.IsMemory(),
		}
		if ref.Ins == 0 {
			d.blkPC[d.meta[pc].blkID] = pc
		}
		if in.Op == ir.OpCall {
			if idx, ok := fnIndex[in.Callee]; ok {
				d.meta[pc].callee = idx
			}
		}
		pc++
	})
	// Successors may be forward references, so they resolve once every
	// block start is known.
	for pc := range d.meta {
		im := &d.meta[pc]
		succs := m.Funcs[im.fn].Blocks[im.blk].Succs
		switch im.in.Op {
		case ir.OpBr:
			im.succ0 = d.blockStart(int(im.fn), succs[0].Index)
		case ir.OpCBr:
			im.succ0 = d.blockStart(int(im.fn), succs[0].Index)
			im.succ1 = d.blockStart(int(im.fn), succs[1].Index)
		case ir.OpCall:
			if im.callee >= 0 {
				im.succ0 = d.blockStart(int(im.callee), 0)
			}
		}
	}
	return d
}
