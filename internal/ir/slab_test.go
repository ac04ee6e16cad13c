package ir_test

import (
	"fmt"
	"strings"
	"testing"

	"specrecon/internal/corpus"
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

// growEachBlock grows every block of m in turn — an append, an InsertAt
// at its top, a new successor — and fails if that changes the text of
// any other block. It returns how many blocks it grew.
func growEachBlock(t *testing.T, what string, m *ir.Module) int {
	t.Helper()
	grown := ir.Instr{Op: ir.OpConst, Dst: 0, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 7}
	top := ir.Instr{Op: ir.OpNop, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg}
	blocks := 0
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
					t.Fatalf("%s %s: growing block %s.%s changed block %s:\n%s\nwas:\n%s", what, m.Name, f.Name, b.Name, o.Name, blockText(o), texts[j])
				}
			}
			texts[i] = blockText(b)
			blocks++
		}
	}
	return blocks
}

// TestParsedBlocksDoNotAlias: a parsed function's blocks share one
// instruction slab and one edge slab, each block capped at its own end,
// so growing any block — an append, an InsertAt at its top, a new
// successor — leaves every other block's text as it was. It parses the
// printed sourceSet: the corpus at seeds 42 and 1234567, every workload
// and the checked-in assembly.
func TestParsedBlocksDoNotAlias(t *testing.T) {
	blocks := 0
	for _, src := range sourceSet(t) {
		m, err := ir.Parse(ir.Print(src))
		if err != nil {
			t.Fatalf("%s: %v", src.Name, err)
		}
		blocks += growEachBlock(t, "parsed", m)
	}
	if blocks < 1000 {
		t.Fatalf("grew %d blocks, want at least 1000", blocks)
	}
}

// TestBuiltBlocksDoNotAlias is TestParsedBlocksDoNotAlias for the other
// two constructors: every block of the 520-kernel corpus and of every
// workload as ir.Builder lays it out, and of a clone of each, grows
// alone.
func TestBuiltBlocksDoNotAlias(t *testing.T) {
	var mods []*ir.Module
	for _, a := range corpus.Generate(520, 42) {
		mods = append(mods, a.Module)
	}
	for _, w := range workloads.All() {
		mods = append(mods, w.Build(workloads.BuildConfig{}).Module)
	}
	blocks := 0
	for _, m := range mods {
		clone := m.Clone()
		blocks += growEachBlock(t, "built", m)
		blocks += growEachBlock(t, "cloned", clone)
	}
	if blocks < 4000 {
		t.Fatalf("grew %d blocks, want at least 4000", blocks)
	}
}

// builtChainAllocs is what building a chain of blocks allocates: the
// block slab, the block pointer list, and the instruction and edge slabs
// Finish lays out.
const builtChainAllocs = 4

// TestBuilderAllocs: once the builders' scratch is warm, what a builder
// allocates for a function does not grow with the function's blocks.
func TestBuilderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	for _, n := range []int{4, 64} {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("b%d", i)
		}
		f := &ir.Function{Name: "chain"}
		allocs := testing.AllocsPerRun(50, func() {
			f.Blocks = nil
			b := ir.NewBuilder(f)
			blocks := b.Blocks(names...)
			for i, blk := range blocks {
				b.SetBlock(blk)
				r := b.Tid()
				if i+1 < n {
					b.CBr(b.SetLTI(r, int64(i)), blocks[i+1], blocks[n-1])
				} else {
					b.Exit()
				}
			}
			b.Finish()
		})
		if allocs != builtChainAllocs {
			t.Errorf("building a %d-block chain allocates %v objects, want %d", n, allocs, builtChainAllocs)
		}
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

// TestBuilderReentryAndUnfinished: a block the builder re-enters after
// another, or that something else grew since, keeps its instructions and
// takes the new ones after them, and every block of a function grows
// alone whether or not its builder was finished.
func TestBuilderReentryAndUnfinished(t *testing.T) {
	build := func() (*ir.Module, *ir.Builder) {
		f := &ir.Function{Name: "k"}
		b := ir.NewBuilder(f)
		bl := b.Blocks("a", "c", "d")
		a, c, d := bl[0], bl[1], bl[2]
		b.SetBlock(a)
		x := b.Tid()
		b.SetBlock(c)
		b.Lane()
		b.SetBlock(a)
		b.AddI(x, 1)
		a.InsertTop(ir.Instr{Op: ir.OpNop, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg})
		b.Br(c)
		b.SetBlock(c)
		b.CBr(x, d, a)
		b.SetBlock(d)
		b.Exit()
		return &ir.Module{Name: "m", Funcs: []*ir.Function{f}}, b
	}
	want := []string{
		"a:\n  nop\n  tid r0\n  add r2, r0, #1\n  br c\n  -> c",
		"c:\n  lane r1\n  cbr r0, d, a\n  -> d\n  -> a",
		"d:\n  exit",
	}
	for _, finish := range []bool{false, true} {
		m, b := build()
		if finish {
			b.Finish()
		}
		for i, blk := range m.Funcs[0].Blocks {
			if got := blockText(blk); got != want[i] {
				t.Errorf("finished %v: block %d:\n%s\nwant:\n%s", finish, i, got, want[i])
			}
		}
		growEachBlock(t, fmt.Sprintf("finished %v", finish), m)
	}
}
