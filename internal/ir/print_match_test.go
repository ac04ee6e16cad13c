package ir_test

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"specrecon/internal/core"
	"specrecon/internal/corpus"
	"specrecon/internal/ir"
	"specrecon/internal/workloads"
)

// referenceSet is what the printer is held to its reference on: 500
// generated kernels from each of two seeds, every bundled workload, the
// checked-in assembly files, and every one of those compiled under the
// baseline and the speculative pipeline (so barrier operations, waitn
// thresholds and renamed blocks are covered too).
func referenceSet(t *testing.T) []*ir.Module {
	t.Helper()
	var mods []*ir.Module
	for _, seed := range []uint64{42, 1234567} {
		for _, a := range corpus.Generate(500, seed) {
			mods = append(mods, a.Module)
		}
	}
	for _, w := range workloads.All() {
		mods = append(mods, w.Build(workloads.BuildConfig{Seed: 42}).Module)
	}
	files, err := filepath.Glob("../../testdata/*.sasm")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata/*.sasm found (err %v)", err)
	}
	repairs, _ := filepath.Glob("../../testdata/repair/*.sasm")
	for _, path := range append(files, repairs...) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		mods = append(mods, m)
	}
	for _, m := range mods { // the inputs: range has fixed its bounds before the appends below
		for _, opts := range []core.Options{core.BaselineOptions(), core.SpecReconOptions()} {
			c, err := core.Compile(m, opts)
			if err != nil {
				t.Fatalf("compile %s: %v", m.Name, err)
			}
			mods = append(mods, c.Module)
		}
	}
	return mods
}

// TestAppendPrinterMatchesReference: the append-based printer and the
// fmt-based one it replaced agree byte for byte at all three
// granularities.
func TestAppendPrinterMatchesReference(t *testing.T) {
	mods := referenceSet(t)
	instrs := 0
	for _, m := range mods {
		if got, want := ir.Print(m), ir.RefPrint(m); got != want {
			t.Fatalf("%s: Print differs from the reference:\n--- got\n%s\n--- want\n%s", m.Name, got, want)
		}
		for _, f := range m.Funcs {
			if got, want := ir.PrintFunction(f), ir.RefPrintFunction(f); got != want {
				t.Fatalf("%s.%s: PrintFunction differs from the reference", m.Name, f.Name)
			}
			for _, b := range f.Blocks {
				for i := range b.Instrs {
					// With and without the owning block: FormatInstr
					// names successors only when given one.
					for _, owner := range []*ir.Block{b, nil} {
						if got, want := ir.FormatInstr(&b.Instrs[i], owner), ir.RefFormatInstr(&b.Instrs[i], owner); got != want {
							t.Fatalf("%s.%s.%s[%d]: FormatInstr = %q, reference %q", m.Name, f.Name, b.Name, i, got, want)
						}
					}
					instrs++
				}
			}
		}
	}
	t.Logf("%d modules, %d instructions", len(mods), instrs)
}

// TestAppendModuleAllocatesNothing: printing into a buffer that already
// has the room is allocation-free — what lets the compile cache size an
// entry by printing it without paying for the text.
func TestAppendModuleAllocatesNothing(t *testing.T) {
	m := workloads.All()[0].Build(workloads.BuildConfig{Seed: 42}).Module
	buf := ir.AppendModule(nil, m)
	if allocs := testing.AllocsPerRun(20, func() { buf = ir.AppendModule(buf[:0], m) }); allocs != 0 {
		t.Errorf("AppendModule into a warm buffer: %v allocs per run, want 0", allocs)
	}
}

// TestFloatImmediatesRoundTrip: every float immediate the parser accepts
// prints as a token the parser accepts again, with the same bits. NaN is
// the case the old printer lost ("NaN.0" does not parse).
func TestFloatImmediatesRoundTrip(t *testing.T) {
	cases := []struct {
		lit  string
		want float64
	}{
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
		{"inf", math.Inf(1)},
		{"-0", math.Copysign(0, -1)},
		{"0", 0},
		{"3", 3},
		{"-17", -17},
		{"1e21", 1e21},
		{"1e+06", 1e6},
		{"0.25", 0.25},
		{"5e-324", 5e-324}, // smallest subnormal
		{"2.2250738585072009e-308", 2.2250738585072009e-308}, // largest subnormal
		{"1.7976931348623157e308", math.MaxFloat64},
	}
	for _, tc := range cases {
		src := "module m memwords=8\nfunc @k nregs=1 nfregs=2 {\ne:\n  fconst f0, #" + tc.lit + "\n  fadd f1, f0, #" + tc.lit + "\n  exit\n}\n"
		m, err := ir.Parse(src)
		if err != nil {
			t.Errorf("#%s: %v", tc.lit, err)
			continue
		}
		text := ir.Print(m)
		again, err := ir.Parse(text)
		if err != nil {
			t.Errorf("#%s: printed module does not re-parse: %v\n%s", tc.lit, err, text)
			continue
		}
		if text2 := ir.Print(again); text2 != text {
			t.Errorf("#%s: printing is not stable:\n%s\nvs\n%s", tc.lit, text, text2)
		}
		for i, in := range again.Funcs[0].Blocks[0].Instrs[:2] {
			got, want := math.Float64bits(in.FImm), math.Float64bits(tc.want)
			if math.IsNaN(tc.want) {
				if !math.IsNaN(in.FImm) {
					t.Errorf("#%s instr %d: got %v, want NaN", tc.lit, i, in.FImm)
				}
			} else if got != want {
				t.Errorf("#%s instr %d: bits %#x, want %#x", tc.lit, i, got, want)
			}
		}
	}
}
