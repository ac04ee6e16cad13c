package ir_test

import (
	"strings"
	"testing"

	"specrecon/internal/ir"
	"specrecon/internal/workloads"
)

// blockText is a block's label, instructions and successors as printed.
func blockText(b *ir.Block) string {
	var sb strings.Builder
	sb.WriteString(b.Name + ":")
	for i := range b.Instrs {
		sb.WriteString("\n  " + ir.FormatInstr(&b.Instrs[i], b))
	}
	for _, s := range b.Succs {
		sb.WriteString("\n  -> " + s.Name)
	}
	return sb.String()
}

// TestParsedBlocksDoNotAlias: a parsed function's blocks share one
// instruction slab and one edge slab, each block capped at its own end,
// so growing any block — an append, an InsertAt at its top, a new
// successor — leaves every other block's text as it was. It parses the
// printed sourceSet: the corpus at seeds 42 and 1234567, every workload
// and the checked-in assembly.
func TestParsedBlocksDoNotAlias(t *testing.T) {
	grown := ir.Instr{Op: ir.OpConst, Dst: 0, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 7}
	top := ir.Instr{Op: ir.OpNop, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg}
	blocks := 0
	for _, src := range sourceSet(t) {
		m, err := ir.Parse(ir.Print(src))
		if err != nil {
			t.Fatalf("%s: %v", src.Name, err)
		}
		for _, f := range m.Funcs {
			texts := make([]string, len(f.Blocks))
			for i, b := range f.Blocks {
				texts[i] = blockText(b)
			}
			for i, b := range f.Blocks {
				b.Instrs = append(b.Instrs, grown)
				b.InsertAt(0, top)
				b.Succs = append(b.Succs, f.Blocks[0])
				for j, o := range f.Blocks {
					if j != i && blockText(o) != texts[j] {
						t.Fatalf("%s: growing block %s.%s changed block %s:\n%s\nwas:\n%s", m.Name, f.Name, b.Name, o.Name, blockText(o), texts[j])
					}
				}
				texts[i] = blockText(b)
				blocks++
			}
		}
	}
	if blocks < 1000 {
		t.Fatalf("grew %d blocks, want at least 1000", blocks)
	}
}

// parseAllocsMax is what Parse(rsbench) allocates: the module, its
// function list, and per function the Function and its block, block
// pointer, instruction and edge slabs.
const parseAllocsMax = 10

// TestParseAllocs pins what a Parse of one workload allocates once the
// pooled parser is warm.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	w, err := workloads.Get("rsbench")
	if err != nil {
		t.Fatal(err)
	}
	src := ir.Print(w.Build(workloads.BuildConfig{}).Module)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ir.Parse(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > parseAllocsMax {
		t.Errorf("Parse(rsbench) allocates %v objects, want at most %d", allocs, parseAllocsMax)
	}
}
