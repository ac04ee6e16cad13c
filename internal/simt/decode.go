package simt

import (
	"fmt"

	"specrecon/internal/ir"
)

// Decode-time side tables. The issue loop runs once per warp instruction
// — hundreds of thousands of times per experiment — so everything that
// can be computed from the static module is resolved once at launch and
// looked up by (fn, blk, ins) index afterwards. This removes the
// per-issue map lookups the engine previously paid: the opcode→class
// string map in the metrics, the opcode→latency table walk, and the
// callee-name→function-index map in OpCall.

// instrMeta caches the decoded facts of one instruction.
type instrMeta struct {
	latency int64     // base issue cost, from the opcode table
	callee  int32     // resolved function index for OpCall, else -1
	pcid    int32     // dense static-instruction index (BuildPCTable order)
	class   OpClassID // reporting class for the metrics counters
	isMem   bool      // accesses global memory (coalescing applies)
}

// buildMeta decodes every instruction of the module into a side table
// indexed [fn][blk][ins], parallel to the module structure. An OpCall
// whose callee does not resolve keeps callee = -1; the issue loop then
// reports the same runtime error the interpreter always raised, so
// decode stays infallible.
func buildMeta(m *ir.Module, fnIndex map[string]int) [][][]instrMeta {
	meta := make([][][]instrMeta, len(m.Funcs))
	pcid := int32(0) // running dense index, matching BuildPCTable order
	for fi, f := range m.Funcs {
		meta[fi] = make([][]instrMeta, len(f.Blocks))
		for bi, b := range f.Blocks {
			row := make([]instrMeta, len(b.Instrs))
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				im := instrMeta{
					latency: int64(in.Op.Latency()),
					callee:  -1,
					pcid:    pcid,
					class:   OpClassOf(in.Op),
					isMem:   in.Op.IsMemory(),
				}
				pcid++
				if in.Op == ir.OpCall {
					if idx, ok := fnIndex[in.Callee]; ok {
						im.callee = int32(idx)
					}
				}
				row[ii] = im
			}
			meta[fi][bi] = row
		}
	}
	return meta
}

// checkPCLimits rejects a module whose function, block or instruction
// counts do not fit the packed PC of the group table (pcKey).
func checkPCLimits(m *ir.Module) error {
	if len(m.Funcs) > 1<<pcFnBits {
		return fmt.Errorf("simt: module has %d functions (limit %d)", len(m.Funcs), 1<<pcFnBits)
	}
	for _, f := range m.Funcs {
		if len(f.Blocks) > 1<<pcBlkBits {
			return fmt.Errorf("simt: function %q has %d blocks (limit %d)", f.Name, len(f.Blocks), 1<<pcBlkBits)
		}
		for _, b := range f.Blocks {
			if len(b.Instrs) > 1<<pcInsBits {
				return fmt.Errorf("simt: block %s.%s has %d instructions (limit %d)", f.Name, b.Name, len(b.Instrs), 1<<pcInsBits)
			}
		}
	}
	return nil
}
