package ir_test

import (
	"math"
	"testing"

	"specrecon/internal/core"
	"specrecon/internal/ir"
	"specrecon/internal/workloads"
)

// firstInstr is the module's first instruction.
func firstInstr(m *ir.Module) *ir.Instr {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			if len(b.Instrs) > 0 {
				return &b.Instrs[0]
			}
		}
	}
	return nil
}

// sameModuleMutations each edit one field of a (or of both a and b, for
// the float-immediate pairs) and leave the clones different programs. An
// edit that has nothing to edit in a module reports false and is skipped.
var sameModuleMutations = []struct {
	name string
	edit func(a, b *ir.Module) bool
}{
	{"Op", func(_, b *ir.Module) bool { firstInstr(b).Op++; return true }},
	{"Dst", func(_, b *ir.Module) bool { firstInstr(b).Dst++; return true }},
	{"A", func(_, b *ir.Module) bool { firstInstr(b).A++; return true }},
	{"B", func(_, b *ir.Module) bool { firstInstr(b).B++; return true }},
	{"C", func(_, b *ir.Module) bool { firstInstr(b).C++; return true }},
	{"BImm", func(_, b *ir.Module) bool { in := firstInstr(b); in.BImm = !in.BImm; return true }},
	{"Imm", func(_, b *ir.Module) bool { firstInstr(b).Imm++; return true }},
	{"FImm", func(_, b *ir.Module) bool { firstInstr(b).FImm += 1.5; return true }},
	{"Bar", func(_, b *ir.Module) bool { firstInstr(b).Bar++; return true }},
	{"Callee", func(_, b *ir.Module) bool { firstInstr(b).Callee += "x"; return true }},
	{"FImm+0/-0", func(a, b *ir.Module) bool {
		firstInstr(a).FImm, firstInstr(b).FImm = 0, math.Copysign(0, -1)
		return true
	}},
	{"FImm-NaN-payloads", func(a, b *ir.Module) bool {
		firstInstr(a).FImm = math.Float64frombits(0x7ff8000000000001)
		firstInstr(b).FImm = math.Float64frombits(0x7ff8000000000002)
		return true
	}},
	{"successor-swap", func(_, b *ir.Module) bool {
		for _, f := range b.Funcs {
			for _, blk := range f.Blocks {
				if len(blk.Succs) == 2 && blk.Succs[0] != blk.Succs[1] {
					blk.Succs[0], blk.Succs[1] = blk.Succs[1], blk.Succs[0]
					return true
				}
			}
		}
		return false
	}},
	{"block-rename", func(_, b *ir.Module) bool { b.Funcs[0].Blocks[0].Name += "x"; return true }},
	{"NRegs", func(_, b *ir.Module) bool { b.Funcs[0].NRegs++; return true }},
	{"NFRegs", func(_, b *ir.Module) bool { b.Funcs[0].NFRegs++; return true }},
	{"MemWords", func(_, b *ir.Module) bool { b.MemWords++; return true }},
	{"SharedWords", func(_, b *ir.Module) bool { b.SharedWords++; return true }},
	{"module-name", func(_, b *ir.Module) bool { b.Name += "x"; return true }},
	{"function-order", func(_, b *ir.Module) bool {
		if len(b.Funcs) < 2 {
			return false
		}
		b.Funcs[0], b.Funcs[1] = b.Funcs[1], b.Funcs[0]
		return true
	}},
	{"prediction-threshold", func(_, b *ir.Module) bool {
		for _, f := range b.Funcs {
			if len(f.Predictions) > 0 {
				f.Predictions[0].Threshold++
				return true
			}
		}
		return false
	}},
}

// TestSameModule: a module is the same program as its clone, and not
// after any one-field edit; whenever two modules are the same program
// they print the same, which the baseline and speculative builds of
// every module also hold to.
func TestSameModule(t *testing.T) {
	mods := sourceSet(t)
	applied := make(map[string]int)
	for _, m := range mods {
		if !ir.SameModule(m, m.Clone()) {
			t.Fatalf("%s: not the same program as its clone", m.Name)
		}
		for _, mu := range sameModuleMutations {
			a, b := m.Clone(), m.Clone()
			if !mu.edit(a, b) {
				continue
			}
			applied[mu.name]++
			if ir.SameModule(a, b) || ir.SameModule(b, a) {
				t.Errorf("%s: %s edit is still the same program", m.Name, mu.name)
			}
		}
	}
	for _, mu := range sameModuleMutations {
		if applied[mu.name] == 0 {
			t.Errorf("%s edit applies to no module of the set", mu.name)
		}
	}

	same := 0
	for _, m := range mods {
		base, err := core.Compile(m, core.BaselineOptions())
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		spec, err := core.Compile(m, core.SpecReconOptions())
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		pairs := [][2]*ir.Module{{m, m.Clone()}, {base.Module, spec.Module}, {m, base.Module}}
		for _, p := range pairs {
			if ir.SameModule(p[0], p[1]) {
				same++
				if ir.Print(p[0]) != ir.Print(p[1]) {
					t.Errorf("%s: the same program prints differently:\n%s\n---\n%s", m.Name, ir.Print(p[0]), ir.Print(p[1]))
				}
			}
		}
	}
	t.Logf("%d modules, %d same-program pairs", len(mods), same)
}

// TestSameModuleAllocatesNothing: the comparison a differential check
// makes on every kernel costs no allocation.
func TestSameModuleAllocatesNothing(t *testing.T) {
	m := workloads.All()[0].Build(workloads.BuildConfig{Seed: 42}).Module
	c := m.Clone()
	if allocs := testing.AllocsPerRun(20, func() { ir.SameModule(m, c) }); allocs != 0 {
		t.Errorf("SameModule: %v allocs per run, want 0", allocs)
	}
}
