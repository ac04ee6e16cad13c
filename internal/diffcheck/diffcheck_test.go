package diffcheck

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"specrecon/internal/core"
	"specrecon/internal/corpus"
	"specrecon/internal/ir"
	"specrecon/internal/simt"
	"specrecon/internal/workloads"
)

func TestCheckCleanMatrixKernel(t *testing.T) {
	k := MatrixKernel()
	for _, verify := range []bool{false, true} {
		res := Check(k, Options{Verify: verify})
		if !res.OK {
			t.Fatalf("verify=%v: clean kernel failed: %v", verify, res)
		}
		if res.SpecMetrics.Cycles == 0 || res.BaseMetrics.Cycles == 0 {
			t.Errorf("verify=%v: metrics not captured: %+v", verify, res)
		}
	}
}

func TestCheckAnnotatedWorkloads(t *testing.T) {
	// Every annotated benchmark must be differentially clean — this is
	// the paper's core claim (the transform never changes results, §4)
	// checked end to end.
	for _, w := range workloads.Annotated() {
		inst := w.Build(workloads.BuildConfig{})
		k := Kernel{
			Name: w.Name, Module: inst.Module, Entry: inst.Kernel,
			Threads: inst.Threads, Memory: inst.Memory, Seed: inst.Seed,
		}
		if res := Check(k, Options{Verify: true}); !res.OK {
			t.Errorf("%s: %v", w.Name, res)
		}
	}
}

func TestSeededCorpusSample(t *testing.T) {
	// A slice of the diffhunt campaign as a unit test; the 500-kernel
	// run lives in `make diffcheck-smoke`.
	n := 40
	if testing.Short() {
		n = 8
	}
	for _, app := range corpus.Generate(n, 42) {
		k := Kernel{
			Name: app.Name, Module: app.Module, Entry: app.Kernel,
			Threads: app.Threads, Memory: app.Memory, Seed: app.Seed,
		}
		res := Check(k, Options{AutoAnnotate: true, Verify: true})
		if !res.OK {
			t.Errorf("%s: %v", app.Name, res)
		}
	}
}

// TestFaultMatrixDetection enumerates the full injection matrix: every
// fault must be detected by at least one layer, and by exactly the
// layers its entry claims — a surprise detection (or a lost one) means
// the matrix no longer maps the real detection surface.
func TestFaultMatrixDetection(t *testing.T) {
	matrix := FaultMatrix()
	if len(matrix) < 6 {
		t.Fatalf("matrix has %d faults, want >= 6", len(matrix))
	}
	for _, o := range RunMatrix() {
		t.Run(o.Fault.Name, func(t *testing.T) {
			if !o.Detected() {
				t.Fatalf("fault escaped both layers (dynamic: %v)", o.Dynamic)
			}
			if !o.ExpectationMet() {
				t.Errorf("detection surface moved: static=%v (want %v), dynamic=%v (want %v)\n  static: %v\n  dynamic: %v",
					o.StaticErr != nil, o.Fault.WantStatic,
					!o.Dynamic.OK, o.Fault.WantDynamic,
					o.StaticErr, o.Dynamic)
			}
		})
	}
}

func TestParseFaultBothLayers(t *testing.T) {
	plan, rel, err := ParseFault("drop-cancel@2+skip-release@3")
	if err != nil {
		t.Fatal(err)
	}
	if plan != (core.FaultPlan{DropCancel: 2}) || rel != 3 {
		t.Fatalf("got plan=%v skip-release=%d", plan, rel)
	}
	if _, _, err := ParseFault("skip-release@0"); err == nil {
		t.Error("zero ordinal should be rejected")
	}
	if _, _, err := ParseFault("drop-everything"); err == nil {
		t.Error("unknown fault should be rejected")
	}
}

func moduleSize(k Kernel) (blocks, instrs int) {
	for _, f := range k.Module.Funcs {
		blocks += len(f.Blocks)
		for _, b := range f.Blocks {
			instrs += len(b.Instrs)
		}
	}
	return
}

func TestMinimizeShrinksFailingKernel(t *testing.T) {
	k := MatrixKernel()
	opts := Options{Faults: core.FaultPlan{DropCancel: 1}}
	first := Check(k, opts)
	if first.OK {
		t.Fatal("faulted kernel should fail")
	}
	small, res := Minimize(k, opts)
	if res.OK || res.Stage != first.Stage {
		t.Fatalf("minimized kernel no longer reproduces: %v (was %v)", res, first)
	}
	b0, i0 := moduleSize(k)
	b1, i1 := moduleSize(small)
	if i1 >= i0 && b1 >= b0 && small.Threads >= k.Threads {
		t.Errorf("no shrink achieved: %d/%d blocks, %d/%d instrs, %d/%d threads",
			b1, b0, i1, i0, small.Threads, k.Threads)
	}
	t.Logf("shrank %d blocks/%d instrs/%d threads -> %d/%d/%d (%v)",
		b0, i0, k.Threads, b1, i1, small.Threads, res)
}

func TestMinimizeLeavesPassingKernelAlone(t *testing.T) {
	k := MatrixKernel()
	same, res := Minimize(k, Options{})
	if !res.OK {
		t.Fatalf("clean kernel failed: %v", res)
	}
	if same.Module != k.Module {
		t.Error("passing kernel should be returned unchanged")
	}
}

func TestWriteAndLoadRepro(t *testing.T) {
	dir := t.TempDir()
	k := MatrixKernel()
	opts := Options{SkipReleaseN: 1}
	res := Check(k, opts)
	if res.OK {
		t.Fatal("skip-release kernel should fail")
	}
	path, err := WriteRepro(dir, k, opts, res)
	if err != nil {
		t.Fatal(err)
	}
	again, err := WriteRepro(dir, k, opts, res)
	if err != nil {
		t.Fatal(err)
	}
	if path != again {
		t.Errorf("repro filename not deterministic: %s vs %s", path, again)
	}
	if !strings.HasSuffix(path, ".sasm") {
		t.Errorf("repro should be a .sasm file, got %s", path)
	}

	loaded, recorded, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if recorded != opts {
		t.Errorf("fault not round-tripped: %+v, want %+v", recorded, opts)
	}
	if loaded.Threads != k.Threads || loaded.Seed != k.Seed {
		t.Errorf("launch config not round-tripped: %+v", loaded)
	}
	replay := Check(loaded, recorded)
	if replay.OK || replay.Stage != res.Stage {
		t.Errorf("replayed repro: %v, want failure at %s", replay, res.Stage)
	}
}

// TestReproRoundTripsScheduler: a repro recorded under a non-default
// scheduler carries the policy, seed, group-pick rule and starvation
// limit back through LoadRepro, so a schedule-dependent failure replays
// under exactly the schedule that exposed it.
func TestReproRoundTripsScheduler(t *testing.T) {
	dir := t.TempDir()
	k := MatrixKernel()
	opts := Options{
		SkipReleaseN: 1,
		Sched:        simt.SchedRandom,
		SchedSeed:    77,
		Policy:       simt.PolicyMinPC,
		StarveLimit:  1 << 20,
	}
	res := Check(k, opts)
	if res.OK {
		t.Fatal("skip-release kernel should fail")
	}
	path, err := WriteRepro(dir, k, opts, res)
	if err != nil {
		t.Fatal(err)
	}
	loaded, recorded, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if recorded != opts {
		t.Fatalf("replay env not round-tripped: %+v, want %+v", recorded, opts)
	}
	replay := Check(loaded, recorded)
	if replay.OK || replay.Stage != res.Stage {
		t.Errorf("replayed repro: %v, want failure at %s", replay, res.Stage)
	}
}

// TestEveryDirectiveRoundTrips drives the repro header off the
// directives table: three findings that between them move every recorded
// field off the value LoadRepro starts from are written and loaded back,
// and must come back equal — kernel, memory image and options. A row no
// finding here writes fails the test, so a new directive is covered (or
// this test is extended) the day it is added.
func TestEveryDirectiveRoundTrips(t *testing.T) {
	mod := MatrixKernel().Module
	image := func(n int) []uint64 {
		mem := make([]uint64, n+8) // the tail stays zero: not recorded
		for i := 0; i < n; i++ {
			mem[i] = uint64(i)*0x9e3779b97f4a7c15 | 1
		}
		return mem
	}
	findings := []struct {
		k    Kernel
		opts Options
	}{
		{Kernel{Name: "flat", Module: mod, Entry: "kernel", Threads: 96, Seed: 9, Memory: image(40)},
			Options{Faults: core.FaultPlan{DropCancel: 2, SwapWaits: true}, SkipReleaseN: 3, Repair: true,
				Sched: simt.SchedRandom, SchedSeed: 77, Policy: simt.PolicyMinPC, StarveLimit: 1 << 20}},
		// A grid launch ignores Threads, and a repro of one does not record it.
		{Kernel{Name: "grid", Module: mod, Threads: ir.WarpWidth, Grid: 6, CTASize: 64, SMs: 3, Seed: 1 << 40},
			Options{Sched: simt.SchedOldestFirst}},
		{Kernel{Name: "big", Module: mod, Threads: 32, Memory: image(maxReproMemWords + 5)}, Options{}},
	}
	dir := t.TempDir()
	written := map[string]bool{}
	for _, f := range findings {
		path, err := WriteRepro(dir, f.k, f.opts, Result{Stage: StageRunSpec, Err: errors.New("planted\nsecond line")})
		if err != nil {
			t.Fatal(err)
		}
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range directives {
			if regexp.MustCompile(`(?m)^; repro-` + d.key + `(:|$)`).Match(text) {
				written[d.key] = true
			}
		}
		loaded, recorded, err := LoadRepro(path)
		if err != nil {
			t.Fatalf("%s: %v", f.k.Name, err)
		}
		if recorded != f.opts {
			t.Errorf("%s: options came back as %+v, want %+v", f.k.Name, recorded, f.opts)
		}
		if got, want := ir.Print(loaded.Module), ir.Print(f.k.Module); got != want {
			t.Errorf("%s: the module did not round-trip", f.k.Name)
		}
		want := f.k
		if want.Memory = slices.Clone(want.Memory); len(want.Memory) > maxReproMemWords {
			clear(want.Memory[maxReproMemWords:]) // the words a truncated image drops
		}
		want.Name, want.Module = loaded.Name, loaded.Module // the file's name; compared above
		if !reflect.DeepEqual(loaded, want) {
			loaded.Memory, want.Memory = nil, nil
			t.Errorf("%s: kernel came back as %+v, want %+v (or the memory images differ)", f.k.Name, loaded, want)
		}
	}
	for _, d := range directives {
		if !written[d.key] {
			t.Errorf("no finding of this test writes repro-%s", d.key)
		}
	}
}

// TestLoadReproRejectsBadDirective: a directive whose value does not parse
// is an error naming the file, the line and the key — not a replay under
// the default — while a key this tree does not know is skipped.
func TestLoadReproRejectsBadDirective(t *testing.T) {
	body := ir.Print(MatrixKernel().Module)
	load := func(header string) (Kernel, Options, error) {
		path := filepath.Join(t.TempDir(), "r.sasm")
		if err := os.WriteFile(path, []byte(header+body), 0o644); err != nil {
			t.Fatal(err)
		}
		return LoadRepro(path)
	}
	for key, val := range map[string]string{
		"seed": "abc", "sched": "bogus", "policy": "bogus", "threads": "-4", "grid": "x", "fault": "drop-everything",
		"repair": "maybe", "sched-seed": "-1", "starve-limit": "soon", "memwords": "many", "mem": "3",
	} {
		_, _, err := load("; repro-threads: 64\n; repro-memwords: 8\n; repro-" + key + ": " + val + "\n")
		if want := "r.sasm:3: repro-" + key + ": "; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("repro-%s: %s: error %v, want one carrying %q", key, val, err, want)
		}
	}
	k, opts, err := load("; repro-model: stack\n; repro-threads: 64\n; repro-err: seed: abc\n")
	if err != nil || k.Threads != 64 || opts != (Options{}) {
		t.Errorf("unknown repro-model directive: kernel %+v options %+v error %v, want it skipped", k, opts, err)
	}
}
