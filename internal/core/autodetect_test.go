package core

import (
	"testing"

	"specrecon/internal/ir"
	"specrecon/internal/simt"
)

// buildLoopMergeKernel constructs a Figure 2(b) loop nest: an outer task
// loop, an inner loop with a divergent (random) trip count, inner body
// weight and epilog weight configurable.
func buildLoopMergeKernel(bodyWeight, epilogWeight int) *ir.Module {
	m := ir.NewModule("lm")
	m.MemWords = 128
	f := m.NewFunction("kernel")
	b := ir.NewBuilder(f)

	entry := f.NewBlock("entry")
	oh := f.NewBlock("outer_header")
	prolog := f.NewBlock("prolog")
	ih := f.NewBlock("inner_header")
	ibody := f.NewBlock("inner_body")
	epilog := f.NewBlock("epilog")
	done := f.NewBlock("done")

	b.SetBlock(entry)
	tid := b.Tid()
	task := b.Reg()
	b.ConstTo(task, 0)
	nTasks := b.Const(8)
	acc := b.FConst(0)
	b.Br(oh)

	b.SetBlock(oh)
	b.CBr(b.SetLT(task, nTasks), prolog, done)

	b.SetBlock(prolog)
	trip := b.AddI(b.ModI(b.Rand(), 24), 1)
	j := b.Reg()
	b.ConstTo(j, 0)
	seed := b.FRand()
	b.Br(ih)

	b.SetBlock(ih)
	b.CBr(b.SetLT(j, trip), ibody, epilog)

	b.SetBlock(ibody)
	x := b.FAdd(acc, seed)
	for k := 0; k < bodyWeight; k++ {
		x = b.FMA(x, x, seed)
		x = b.FSqrt(b.FAbs(x))
	}
	b.FMovTo(acc, b.FAdd(acc, x))
	b.MovTo(j, b.AddI(j, 1))
	b.Br(ih)

	b.SetBlock(epilog)
	e := acc
	for k := 0; k < epilogWeight; k++ {
		e = b.FMA(e, e, seed)
		e = b.FSqrt(b.FAbs(e))
	}
	b.FMovTo(acc, b.FMulI(e, 0.5))
	b.MovTo(task, b.AddI(task, 1))
	b.Br(oh)

	b.SetBlock(done)
	b.FStore(tid, 0, acc)
	b.Exit()
	return m
}

func TestDetectLoopMerge(t *testing.T) {
	m := buildLoopMergeKernel(12, 2)
	cands := DetectOpportunities(m, DefaultAutoDetectOptions())
	if len(cands) == 0 {
		t.Fatal("no candidates detected on an obvious loop-merge kernel")
	}
	c := cands[0]
	if c.Kind != PatternLoopMerge {
		t.Errorf("kind = %v, want loop-merge", c.Kind)
	}
	if c.Label.Name != "inner_body" {
		t.Errorf("label = %s, want inner_body", c.Label.Name)
	}
	if c.At.Name != "prolog" {
		t.Errorf("region start = %s, want prolog (the inner preheader)", c.At.Name)
	}
	if c.Score() < DefaultAutoDetectOptions().MinScore {
		t.Errorf("score %.1f below the application threshold", c.Score())
	}
}

func TestDetectRejectsCheapCommonCode(t *testing.T) {
	// Heavy epilog, feather-weight inner body: the cost model must
	// reject the transform.
	m := buildLoopMergeKernel(0, 40)
	applied := AutoAnnotate(m, DefaultAutoDetectOptions())
	if len(applied) != 0 {
		t.Errorf("cost model applied an unprofitable candidate (score %.1f)", applied[0].Score())
	}
}

func TestDetectIterationDelayPattern(t *testing.T) {
	// Listing-1 style kernel: divergent condition guarding an expensive
	// block inside a loop.
	m := buildListing1(64, 24)
	// Strip the manual annotation; the detector must rediscover it.
	m.Funcs[0].Predictions = nil
	cands := DetectOpportunities(m, DefaultAutoDetectOptions())
	if len(cands) == 0 {
		t.Fatal("no candidates on the Listing 1 kernel")
	}
	c := cands[0]
	if c.Kind != PatternIterationDelay {
		t.Errorf("kind = %v, want iteration-delay", c.Kind)
	}
	if c.Label.Name != "expensive" {
		t.Errorf("label = %s, want expensive", c.Label.Name)
	}
}

func TestWarpSyncInhibitsDetection(t *testing.T) {
	m := buildLoopMergeKernel(12, 2)
	// Drop a warp-synchronous op into the inner body: the detector
	// must refuse to change convergence there (section 4.5,
	// "synchronization requirements ... may affect correctness").
	m.Funcs[0].BlockByName("inner_body").InsertTop(ir.Instr{Op: ir.OpWarpSync, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg})
	cands := DetectOpportunities(m, DefaultAutoDetectOptions())
	for _, c := range cands {
		if c.Label.Name == "inner_body" {
			t.Fatalf("detector proposed a region containing warpsync")
		}
	}
}

func TestProfileGuidedDetection(t *testing.T) {
	m := buildLoopMergeKernel(12, 2)
	// Static estimate uses tripCount=8; feed a profile where the inner
	// body dominates even more, and one where it never executes.
	hot := DefaultAutoDetectOptions()
	hot.Profile = map[string]int64{"inner_body": 10000, "prolog": 100, "epilog": 100, "outer_header": 100, "inner_header": 10000}
	cands := DetectOpportunities(m, hot)
	if len(cands) == 0 || cands[0].Score() < DefaultAutoDetectOptions().MinScore {
		t.Fatal("profile-guided detection lost an obviously hot candidate")
	}

	cold := DefaultAutoDetectOptions()
	cold.Profile = map[string]int64{"inner_body": 1, "prolog": 10000, "epilog": 10000, "outer_header": 10000, "inner_header": 1}
	cands = DetectOpportunities(m, cold)
	if len(cands) > 0 && cands[0].Score() >= DefaultAutoDetectOptions().MinScore {
		t.Errorf("cold profile should kill the candidate, score %.1f", cands[0].Score())
	}
}

// TestAutoAnnotateImproves: applying the detector's output end to end
// improves the kernel.
func TestAutoAnnotateImproves(t *testing.T) {
	m := buildLoopMergeKernel(12, 2)
	baseComp, err := Compile(m, BaselineOptions())
	if err != nil {
		t.Fatal(err)
	}
	base, err := simt.Run(baseComp.Module, simt.Config{Kernel: "kernel", Seed: 2, Strict: true})
	if err != nil {
		t.Fatal(err)
	}

	auto := m.Clone()
	applied := AutoAnnotate(auto, DefaultAutoDetectOptions())
	if len(applied) == 0 {
		t.Fatal("nothing applied")
	}
	autoComp, err := Compile(auto, SpecReconOptions())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := simt.Run(autoComp.Module, simt.Config{Kernel: "kernel", Seed: 2, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Metrics.SIMTEfficiency() <= base.Metrics.SIMTEfficiency() {
		t.Errorf("auto transform did not improve efficiency: %.3f -> %.3f",
			base.Metrics.SIMTEfficiency(), spec.Metrics.SIMTEfficiency())
	}
	for i := range base.Memory {
		if base.Memory[i] != spec.Memory[i] {
			t.Fatalf("memory differs at %d", i)
		}
	}
}

// TestAutoMatchesManual verifies the section 5.4 claim that "automatic
// Speculative Reconvergence performs the same as programmer-annotated
// variants": on the loop-merge benchmarks the detector picks exactly the
// manual (At, Label) placement. XSBench is excluded: its manual
// annotation gates the epilog with a user-chosen soft barrier, which the
// static cost model deliberately refuses (its naive loop-merge scores
// below threshold because of the expensive epilog).
func TestAutoMatchesManual(t *testing.T) {
	// Imported via the workloads package in the harness tests; here we
	// validate the equivalence on the local loop-merge kernel.
	m := buildLoopMergeKernel(12, 2)
	manual := ir.Prediction{
		At:    m.Funcs[0].BlockByName("prolog"),
		Label: m.Funcs[0].BlockByName("inner_body"),
	}
	cands := DetectOpportunities(m, DefaultAutoDetectOptions())
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if cands[0].At != manual.At || cands[0].Label != manual.Label {
		t.Errorf("auto placement (%s, %s) differs from manual (%s, %s)",
			cands[0].At.Name, cands[0].Label.Name, manual.At.Name, manual.Label.Name)
	}
}
