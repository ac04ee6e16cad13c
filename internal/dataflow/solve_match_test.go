package dataflow_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specrecon/internal/cfg"
	"specrecon/internal/core"
	"specrecon/internal/corpus"
	"specrecon/internal/dataflow"
	"specrecon/internal/ir"
	"specrecon/internal/workloads"
)

// referenceSet is what the solver is held to its reference on: 500
// generated kernels from each of two seeds, every bundled workload, the
// checked-in assembly files, and every one of those compiled under the
// baseline and the speculative pipeline (the inputs carry few barriers;
// the compiled modules are where equations 1 and 2 have work to do).
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
			opts.SkipAllocation = true // keep virtual barrier ids: more distinct bits
			c, err := core.Compile(m, opts)
			if err != nil {
				t.Fatalf("compile %s: %v", m.Name, err)
			}
			mods = append(mods, c.Module)
		}
	}
	return mods
}

// TestSolveMatchesReference: on every function of the reference set, the
// slab solver and the per-block-Bits solver it replaced reach the same
// IN and OUT, bit for bit, for every problem the repository builds —
// each also run with its direction flipped, so both sweeps see every
// gen/kill shape.
func TestSolveMatchesReference(t *testing.T) {
	solved := 0
	for _, m := range referenceSet(t) {
		for _, f := range m.Funcs {
			f.Reindex()
			info := cfg.New(f)
			for _, np := range dataflow.Problems(m, f) {
				for _, dir := range []dataflow.Direction{np.Dir, dataflow.Forward + dataflow.Backward - np.Dir} {
					p := np.Problem
					p.Dir = dir
					res := dataflow.Solve(f, info, p)
					refIn, refOut := dataflow.SolveRef(f, info, p)
					for _, b := range f.Blocks {
						if !res.In(b.Index).Equal(refIn[b.Index]) || !res.Out(b.Index).Equal(refOut[b.Index]) {
							t.Fatalf("%s.%s %s (dir %d) block %s: IN %v OUT %v, reference IN %v OUT %v",
								m.Name, f.Name, np.Name, dir, b.Name,
								res.In(b.Index), res.Out(b.Index), refIn[b.Index], refOut[b.Index])
						}
					}
					solved++
				}
			}
		}
	}
	t.Logf("%d solves compared", solved)
}

// chain is a function of n blocks in a row, each joining and waiting a
// barrier of its own.
func chain(t *testing.T, n int) *ir.Function {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("module chain memwords=8\nfunc @k nregs=2 nfregs=1 {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "b%d:\n  join b%d\n  add r1, r0, #1\n  wait b%d\n", i, i%8, i%8)
		if i+1 < n {
			fmt.Fprintf(&sb, "  br b%d\n", i+1)
		} else {
			sb.WriteString("  exit\n")
		}
	}
	sb.WriteString("}\n")
	m, err := ir.Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return m.Funcs[0]
}

// TestSolveAllocsIndependentOfBlockCount: a solve allocates its result
// and one slab, whether the function has 4 blocks or 256.
func TestSolveAllocsIndependentOfBlockCount(t *testing.T) {
	var counts []float64
	for _, n := range []int{4, 256} {
		f := chain(t, n)
		info := cfg.New(f)
		counts = append(counts, testing.AllocsPerRun(10, func() {
			dataflow.JoinedBarriers(f, info, true)
			dataflow.RegLiveness(f, info)
		}))
	}
	if counts[0] != counts[1] || counts[0] > 12 {
		t.Errorf("allocations per solve set: %v at 4 blocks, %v at 256; want equal and small", counts[0], counts[1])
	}
}
