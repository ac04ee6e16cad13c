package diffcheck

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"specrecon/internal/core"
	"specrecon/internal/corpus"
	"specrecon/internal/ir"
	"specrecon/internal/simt"
	"specrecon/internal/workloads"
)

// TestSameMemory: words that differ only in float rounding, and NaNs
// with different payloads, are the same result; an integer, a large float
// or a length that differs is not, nor is one CTA's shared word.
func TestSameMemory(t *testing.T) {
	a := []uint64{1, 2, math.Float64bits(1.0)}
	b := []uint64{1, 2, math.Float64bits(1.0 + 1e-13)}
	if err := SameMemory(a, b); err != nil {
		t.Errorf("tiny float difference should pass: %v", err)
	}
	c := []uint64{1, 2, math.Float64bits(1.5)}
	if err := SameMemory(a, c); err == nil {
		t.Error("large float difference should fail")
	}
	d := []uint64{1, 3, math.Float64bits(1.0)}
	if err := SameMemory(a, d); err == nil {
		t.Error("integer difference should fail")
	}
	if err := SameMemory(a, a[:2]); err == nil {
		t.Error("length mismatch should fail")
	}
	nan := []uint64{math.Float64bits(math.NaN())}
	nan2 := []uint64{math.Float64bits(math.NaN()) ^ 1} // different NaN payload
	if err := SameMemory(nan, nan2); err != nil {
		t.Errorf("NaN vs NaN should pass: %v", err)
	}
	if err := SameShared([][]uint64{a, b}, [][]uint64{a, d}); err == nil || !strings.Contains(err.Error(), "cta 1 shared: memory word 1 differs") {
		t.Errorf("one CTA word differing: %v, want a cta 1 shared difference", err)
	}
}

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
	// run is cmd/diffhunt's spec-500 golden.
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

// TestCheckSharesItsInput runs Check from four goroutines over one
// annotated corpus module and one bare one, the way diffhunt -j shares
// a kernel across cells. The detector reads a bare input in place, so
// any write to it is a data race under -race. Every result equals the
// serial one, and neither input prints differently afterwards.
func TestCheckSharesItsInput(t *testing.T) {
	var kernels []Kernel
	for _, app := range corpus.Generate(40, 42) {
		annotated, _ := core.AnnotatedClone(app.Module, core.DefaultAutoDetectOptions())
		if annotated == nil {
			continue
		}
		bare := Kernel{
			Name: app.Name, Module: app.Module, Entry: app.Kernel,
			Threads: app.Threads, Memory: app.Memory, Seed: app.Seed,
		}
		pre := bare
		pre.Module = annotated
		kernels = []Kernel{pre, bare}
		break
	}
	if kernels == nil {
		t.Fatal("no kernel among the first 40 of the corpus takes a prediction")
	}
	opts := Options{AutoAnnotate: true, Verify: true}
	printed := make([]string, len(kernels))
	want := make([]Result, len(kernels))
	for i, k := range kernels {
		printed[i] = ir.Print(k.Module)
		want[i] = Check(k, opts)
	}
	if !want[0].OK || !want[1].OK || want[0].Annotated || !want[1].Annotated {
		t.Fatalf("serial checks: %v (annotated %v), %v (annotated %v); want both ok, the bare one annotated by Check",
			want[0], want[0].Annotated, want[1], want[1].Annotated)
	}

	got := make([][]Result, 4)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range kernels {
				got[w] = append(got[w], Check(k, opts))
			}
		}()
	}
	wg.Wait()
	for w := range got {
		for i, k := range kernels {
			if !reflect.DeepEqual(got[w][i], want[i]) {
				t.Errorf("goroutine %d, %s: %+v, want the serial %+v", w, k.Name, got[w][i], want[i])
			}
		}
	}
	for i, k := range kernels {
		if ir.Print(k.Module) != printed[i] {
			t.Errorf("input %d (%s) prints differently after the checks", i, k.Name)
		}
	}
}

// TestConcurrentChecksMatchSerial runs the campaign's check over the
// corpus from four goroutines at once — each compile and detection
// takes its analysis record from, and retires it to, the one pool the
// goroutines share, so records built for one goroutine's kernels are
// rebuilt for another's — and holds every result to a serial run.
func TestConcurrentChecksMatchSerial(t *testing.T) {
	var kernels []Kernel
	for _, app := range corpus.Generate(500, 42) {
		kernels = append(kernels, Kernel{
			Name: app.Name, Module: app.Module, Entry: app.Kernel,
			Threads: app.Threads, Memory: app.Memory, Seed: app.Seed,
		})
	}
	opts := Options{AutoAnnotate: true, Verify: true}
	want := make([]Result, len(kernels))
	for i, k := range kernels {
		want[i] = Check(k, opts)
	}
	got := make([]Result, len(kernels))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(kernels); i += 4 {
				got[i] = Check(kernels[i], opts)
			}
		}()
	}
	wg.Wait()
	for i, k := range kernels {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: %+v from four goroutines, want the serial %+v", k.Name, got[i], want[i])
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
	for _, bad := range []string{
		"skip-release@0",   // a zero ordinal
		"skip-release@1x",  // trailing junk after the ordinal
		"skip-release@2.5", // a fractional ordinal
		"drop-cancel@1x",
		"drop-everything", // an unknown fault
	} {
		if _, _, err := ParseFault(bad); err == nil {
			t.Errorf("ParseFault(%q) succeeded, want an error", bad)
		}
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
			Options{Faults: core.FaultPlan{DropCancel: 2, SwapWaits: true}, SkipReleaseN: 3, Verify: true, Repair: true,
				Sched: simt.SchedRandom, SchedSeed: 77, Policy: simt.PolicyMinPC, StarveLimit: 1 << 20,
				MaxIssues: 1537, WallBudget: 90 * time.Second, ThresholdOverride: 8, Deconflict: core.DeconflictStatic}},
		// A grid launch ignores Threads, and a repro of one does not record it.
		{Kernel{Name: "grid", Module: mod, Threads: ir.WarpWidth, Grid: 6, CTASize: 64, SMs: 3, Seed: 1 << 40},
			Options{Sched: simt.SchedOldestFirst, AutoAnnotate: true}},
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

// TestEveryOptionIsReplayed: a repro replays every option that can change
// a check's verdict, so each field of Options is recorded by a row of the
// directives table or listed here, with the reason it cannot change a
// verdict. A new field fails this test until someone decides which.
func TestEveryOptionIsReplayed(t *testing.T) {
	rows := map[string]string{ // field: the directive that records it
		"MaxIssues": "max-issues", "ThresholdOverride": "threshold", "Deconflict": "deconflict",
		"Verify": "verify", "Repair": "repair", "AutoAnnotate": "auto-annotate", "Faults": "fault",
		"SkipReleaseN": "fault", "Policy": "policy", "Sched": "sched", "SchedSeed": "sched-seed",
		"StarveLimit": "starve-limit", "WallBudget": "wall-budget",
	}
	// Every field can change a verdict today: the budgets decide a
	// budget or watchdog finding, the rest the build or the launch.
	noVerdict := map[string]string{}
	keys := map[string]bool{}
	for _, d := range directives {
		keys[d.key] = d.parse != nil
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Options{})) {
		key, row := rows[f.Name]
		_, listed := noVerdict[f.Name]
		switch {
		case row && !keys[key]:
			t.Errorf("Options.%s: no directive %q replays it", f.Name, key)
		case !row && !listed:
			t.Errorf("Options.%s is neither a directive row nor listed as unable to change a verdict", f.Name)
		}
	}
}

// TestReproReplaysItsCheck: a repro of a verified, repaired check replays
// under the verifier and the repair pipeline, and one of a budget finding
// under the issue budget it was found with (below the checker's
// default), so the loaded file stops where the check that wrote it
// stopped, repaired or not.
func TestReproReplaysItsCheck(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		fault    string
		opts     Options
		stage    Stage
		repaired bool
	}{
		{"drop-cancel@1", Options{Verify: true, Repair: true}, StageOK, true},
		{"drop-wait@1", Options{Verify: true, Repair: true}, StageVerify, false},
		{"", Options{MaxIssues: 1537}, StageRunSpec, false},
	} {
		plan, skip, err := ParseFault(tc.fault)
		if err != nil {
			t.Fatal(err)
		}
		opts := tc.opts
		opts.Faults, opts.SkipReleaseN = plan, skip
		k := MatrixKernel()
		res := Check(k, opts)
		if res.Stage != tc.stage || res.Repaired != tc.repaired {
			t.Fatalf("%s: checked %v (repaired %v), want %s (repaired %v)", tc.fault, res, res.Repaired, tc.stage, tc.repaired)
		}
		path, err := WriteRepro(dir, k, opts, res)
		if err != nil {
			t.Fatal(err)
		}
		loaded, recorded, err := LoadRepro(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := Check(loaded, recorded); got.Stage != res.Stage || got.Repaired != res.Repaired {
			t.Errorf("%s: replayed %v (repaired %v), checked %v (repaired %v)", tc.fault, got, got.Repaired, res, res.Repaired)
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
		"threshold": "-2", "deconflict": "sideways", "auto-annotate": "maybe", "max-issues": "lots", "wall-budget": "soon",
	} {
		_, _, err := load("; repro-threads: 64\n; repro-memwords: 8\n; repro-" + key + ": " + val + "\n")
		if want := "r.sasm:3: repro-" + key + ": "; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("repro-%s: %s: error %v, want one carrying %q", key, val, err, want)
		}
	}
	k, opts, err := load("; repro-model: stack\n; repro-threads: 64\n; repro-err: seed: abc\n")
	if err != nil || k.Threads != 64 || opts != (Options{AutoAnnotate: true}) {
		t.Errorf("unknown repro-model directive: kernel %+v options %+v error %v, want it skipped", k, opts, err)
	}
}

// TestReusedLaunchIsARelaunch: a check that shares the baseline's launch
// reports what it reports when it simulates the speculative build again,
// over the campaign's corpus under the campaign's options and under a
// repairing check with a planted compile fault. A reused launch is
// visible as SpecMetrics sharing BaseMetrics' storage; the campaign's
// count of them is pinned, and so is none under the planted fault and
// under each of the four launch fields only the speculative run sets,
// so a change that stops (or starts) reusing shows here.
func TestReusedLaunchIsARelaunch(t *testing.T) {
	var kernels []Kernel
	for _, app := range corpus.Generate(500, 42) {
		kernels = append(kernels, Kernel{
			Name: app.Name, Module: app.Module, Entry: app.Kernel,
			Threads: app.Threads, Memory: app.Memory, Seed: app.Seed,
		})
	}
	shares := func(r Result) bool {
		return r.BaseMetrics.OpClassIssues != nil &&
			reflect.ValueOf(r.BaseMetrics.OpClassIssues).UnsafePointer() == reflect.ValueOf(r.SpecMetrics.OpClassIssues).UnsafePointer()
	}
	for _, tc := range []struct {
		name   string
		opts   Options
		reused int
	}{
		{"campaign", Options{AutoAnnotate: true, Verify: true}, 485},
		{"repair-drop-cancel", Options{AutoAnnotate: true, Verify: true, Repair: true, Faults: core.FaultPlan{DropCancel: 1}}, 0},
		{"skip-release", Options{AutoAnnotate: true, Verify: true, SkipReleaseN: 1}, 0},
		{"sched-oldest", Options{AutoAnnotate: true, Verify: true, Sched: simt.SchedOldestFirst}, 0},
		{"sched-seed", Options{AutoAnnotate: true, Verify: true, SchedSeed: 1}, 0},
		{"starve-limit", Options{AutoAnnotate: true, Verify: true, StarveLimit: 1 << 20}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reused := 0
			for _, k := range kernels {
				got, want := Check(k, tc.opts), checkRelaunching(k, tc.opts)
				if shares(got) {
					reused++
				}
				if shares(want) {
					t.Fatalf("%s: the relaunching check shares the baseline's metrics", k.Name)
				}
				if got.OK != want.OK || got.Stage != want.Stage || fmt.Sprint(got.Err) != fmt.Sprint(want.Err) ||
					got.Annotated != want.Annotated || got.Repaired != want.Repaired ||
					!reflect.DeepEqual(got.BaseMetrics, want.BaseMetrics) || !reflect.DeepEqual(got.SpecMetrics, want.SpecMetrics) {
					t.Errorf("%s: %v (annotated %v, repaired %v), relaunched %v (annotated %v, repaired %v)\n  base %+v\n  want %+v\n  spec %+v\n  want %+v",
						k.Name, got, got.Annotated, got.Repaired, want, want.Annotated, want.Repaired,
						got.BaseMetrics, want.BaseMetrics, got.SpecMetrics, want.SpecMetrics)
				}
			}
			t.Logf("%d of %d checks reused the baseline's launch", reused, len(kernels))
			if reused != tc.reused {
				t.Errorf("%d checks reused the baseline's launch, want %d", reused, tc.reused)
			}
		})
	}
}
