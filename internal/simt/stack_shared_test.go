package simt_test

import (
	"sync"
	"testing"

	"specrecon/internal/core"
	"specrecon/internal/simt"
	"specrecon/internal/workloads"
)

// TestStackEngineSharesModuleReadOnly launches one compiled module — the
// kind the compile cache hands out shared and immutable — under the
// stack engine from several goroutines at once. The engine must only
// read the module (run under -race, this is what catches a launch that
// re-indexes blocks or otherwise writes to it), and every launch must
// produce the same result.
func TestStackEngineSharesModuleReadOnly(t *testing.T) {
	w, err := workloads.Get("rsbench")
	if err != nil {
		t.Fatal(err)
	}
	inst := w.Build(workloads.BuildConfig{Tasks: 2})
	comp, err := core.Compile(inst.Module, core.BaselineOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := simt.Config{
		Kernel: inst.Kernel, Threads: inst.Threads, Seed: inst.Seed,
		Memory: inst.Memory, Model: simt.ModelStack,
	}
	const launches = 4
	results := make([]*simt.Result, launches)
	errs := make([]error, launches)
	var wg sync.WaitGroup
	wg.Add(launches)
	for i := 0; i < launches; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = simt.Run(comp.Module, cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
	}
	for i := 1; i < launches; i++ {
		if results[i].Metrics.Cycles != results[0].Metrics.Cycles || results[i].Metrics.Issues != results[0].Metrics.Issues {
			t.Fatalf("launch %d: %d cycles / %d issues, launch 0: %d / %d", i,
				results[i].Metrics.Cycles, results[i].Metrics.Issues, results[0].Metrics.Cycles, results[0].Metrics.Issues)
		}
		for a := range results[0].Memory {
			if results[i].Memory[a] != results[0].Memory[a] {
				t.Fatalf("launch %d: memory word %d differs from launch 0", i, a)
			}
		}
	}
}
