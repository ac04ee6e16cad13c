package corpus

import (
	"testing"

	"specrecon/internal/core"
	"specrecon/internal/ir"
	"specrecon/internal/rng"
	"specrecon/internal/simt"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(40, 9)
	b := Generate(40, 9)
	if len(a) != 40 || len(b) != 40 {
		t.Fatalf("sizes %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Kind != b[i].Kind {
			t.Fatalf("app %d differs across identical generations", i)
		}
		if ir.Print(a[i].Module) != ir.Print(b[i].Module) {
			t.Fatalf("app %d module text differs", i)
		}
	}
}

func TestAllAppsVerifyAndRun(t *testing.T) {
	apps := Generate(60, 3)
	for _, app := range apps {
		if err := ir.VerifyModule(app.Module); err != nil {
			t.Fatalf("%s: invalid module: %v", app.Name, err)
		}
		comp, err := core.Compile(app.Module, core.BaselineOptions())
		if err != nil {
			t.Fatalf("%s: compile: %v", app.Name, err)
		}
		if _, err := simt.Run(comp.Module, simt.Config{
			Kernel: app.Kernel, Threads: app.Threads, Seed: app.Seed,
			Memory: app.Memory, Strict: true,
		}); err != nil {
			t.Fatalf("%s: run: %v", app.Name, err)
		}
	}
}

func TestPopulationMix(t *testing.T) {
	apps := Generate(520, 42)
	counts := map[Kind]int{}
	for _, a := range apps {
		counts[a.Kind]++
	}
	uniform := counts[KindStreaming] + counts[KindStencil] + counts[KindReduction]
	if uniform < 400 {
		t.Errorf("uniform kernels = %d of 520, want the large majority", uniform)
	}
	candidates := counts[KindImbalancedLoop] + counts[KindDivergentCond]
	if candidates < 20 || candidates > 70 {
		t.Errorf("candidate kernels = %d, want a small minority (20..70)", candidates)
	}
}

func TestUniformKindsAreEfficient(t *testing.T) {
	apps := Generate(80, 11)
	for _, app := range apps {
		if app.Kind != KindStreaming && app.Kind != KindStencil && app.Kind != KindReduction {
			continue
		}
		comp, err := core.Compile(app.Module, core.BaselineOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := simt.Run(comp.Module, simt.Config{
			Kernel: app.Kernel, Threads: app.Threads, Seed: app.Seed,
			Memory: app.Memory, Strict: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if eff := res.Metrics.SIMTEfficiency(); eff < 0.95 {
			t.Errorf("%s (%s): efficiency %.2f, uniform kernels should be near 1", app.Name, app.Kind, eff)
		}
	}
}

func TestDivergentKindsAreInefficient(t *testing.T) {
	apps := Generate(200, 12)
	seen := 0
	for _, app := range apps {
		if app.Kind != KindImbalancedLoop && app.Kind != KindDivergentCond {
			continue
		}
		seen++
		comp, err := core.Compile(app.Module, core.BaselineOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := simt.Run(comp.Module, simt.Config{
			Kernel: app.Kernel, Threads: app.Threads, Seed: app.Seed,
			Memory: app.Memory, Strict: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if eff := res.Metrics.SIMTEfficiency(); eff >= 0.8 {
			t.Errorf("%s (%s): efficiency %.2f, divergent kernels should screen below 80%%", app.Name, app.Kind, eff)
		}
	}
	if seen == 0 {
		t.Fatal("no divergent kernels generated in 200 apps")
	}
}

// generateAllocs is what generating one application allocates: its
// name, the module, its function list and function, the builder's block
// slab, block pointer list, instruction slab and edge slab, the memory
// image and the App.
const generateAllocs = 10

// TestGenerateAllocs: every kind of application, from four blocks to
// seven, takes the same fixed number of allocations to generate once the
// builders' scratch is warm.
func TestGenerateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	for kind := KindStreaming; kind <= KindDivergentCond; kind++ {
		allocs := testing.AllocsPerRun(50, func() {
			generateApp(7, kind, rng.Split(42, 8))
		})
		if allocs != generateAllocs {
			t.Errorf("generating a %s application allocates %v objects, want %d", kind, allocs, generateAllocs)
		}
	}
}
