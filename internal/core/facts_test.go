package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"specrecon/internal/analyze"
	"specrecon/internal/cfg"
	"specrecon/internal/corpus"
	"specrecon/internal/divergence"
	"specrecon/internal/ir"
	"specrecon/internal/repair"
	"specrecon/internal/workloads"
)

// staleFacts is the shadow's finding: what the record handed out for a
// function is not what a recompute gives.
type staleFacts struct{ msg string }

func (e *staleFacts) Error() string { return e.msg }

// shadow is the record's shadow: a read-only pass that, for every
// function, reads the CFG and divergence analyses through the record
// and compares them field by field (reflect.DeepEqual walks every
// field, unexported ones and the loop forest included) with ones built
// from scratch. reads and kept count the CFG reads and those among
// them that returned the Info the previous shadow saw.
type shadow struct {
	seen        map[*ir.Function]*cfg.Info
	reads, kept int
}

func (s *shadow) pass() Pass {
	return &pass{name: "shadow", spec: "shadow", effect: ReadsOnly, run: func(c *PassContext) error {
		for _, f := range c.Mod.Funcs {
			if len(f.Blocks) == 0 {
				continue
			}
			info, div := c.facts.CFG(f), c.facts.Divergence(f)
			s.reads++
			if s.seen[f] == info {
				s.kept++
			}
			s.seen[f] = info
			fresh := cfg.New(f)
			if !reflect.DeepEqual(info, fresh) {
				return &staleFacts{fmt.Sprintf("after %s: cfg.Info of %s differs from a rebuild", c.lastPass(), f.Name)}
			}
			if !reflect.DeepEqual(div, divergence.Analyze(c.Mod, f, fresh)) {
				return &staleFacts{fmt.Sprintf("after %s: divergence.Info of %s differs from a rebuild", c.lastPass(), f.Name)}
			}
		}
		return nil
	}}
}

// lastPass names the pass the shadow is checking.
func (c *PassContext) lastPass() string {
	for i := len(c.result.PassStats) - 1; i >= 0; i-- {
		if name := c.result.PassStats[i].Pass; name != "shadow" {
			return name
		}
	}
	return "the input"
}

// shadowed returns p with the shadow run first and after every pass.
func (s *shadow) shadowed(p *Pipeline) *Pipeline {
	check := s.pass()
	passes := []Pass{check}
	for _, ps := range p.passes {
		passes = append(passes, ps, check)
	}
	return newPipeline(passes)
}

// run compiles m through the shadowed pipeline. A pass may fail (the
// verifier rejecting a faulted build is what some pipelines are for);
// only the shadow's own finding is a test failure.
func (s *shadow) run(t *testing.T, what string, m *ir.Module, opts Options, p *Pipeline) {
	t.Helper()
	s.seen = map[*ir.Function]*cfg.Info{}
	_, err := CompilePipeline(m, opts, s.shadowed(p))
	var stale *staleFacts
	if errors.As(err, &stale) {
		t.Fatalf("%s under %q: %v", what, p.Spec(), stale)
	}
}

// everyDefaultPipeline is the five default pipeline shapes for opts.
func everyDefaultPipeline(opts Options) []*Pipeline {
	return []*Pipeline{
		PipelineFor(opts), SafePipelineFor(opts), RepairPipelineFor(opts),
		pipelineWith(opts, "analyze", ""), pipelineWith(opts, "repair", "analyze"),
	}
}

// TestAnalysisRecordIsTheRecompute is the validity rule's shadow test:
// over the 500-kernel corpus (auto-annotated, so the speculative passes
// have work) and the bundled workloads, through every default pipeline
// shape under every deconfliction mode, through the fault-injected
// verifying and repairing pipelines, and through a parsed pipeline that
// reshapes the graph and rewrites registers between reads (simplify,
// opt, unroll), what the record hands out after each pass is what a
// recompute gives. It also holds the point of the record: on the
// default shapes nearly every read is a reuse.
func TestAnalysisRecordIsTheRecompute(t *testing.T) {
	type kernel struct {
		name string
		mod  *ir.Module
	}
	var kernels []kernel
	for _, app := range corpus.Generate(500, 42) {
		mod := app.Module.Clone()
		auto := DefaultAutoDetectOptions()
		auto.MinScore = 0
		AutoAnnotate(mod, auto)
		kernels = append(kernels, kernel{app.Name, mod})
	}
	for _, w := range workloads.All() {
		kernels = append(kernels, kernel{w.Name, w.Build(workloads.BuildConfig{}).Module})
	}

	spec := func(mode DeconflictMode, faults FaultPlan) Options {
		o := SpecReconOptions()
		o.Deconflict, o.Faults = mode, faults
		return o
	}
	faults := []FaultPlan{
		{DropCancel: 1}, {DropCancel: 2}, {DropWait: 1}, {DropJoin: 1}, {DropRejoin: 1},
		{SwapWaits: true}, {SkipConflict: 1},
	}
	reshaping, err := ParsePipeline("barrier-safety,simplify,opt,pdom,predict,deconflict=dynamic,analyze,alloc")
	if err != nil {
		t.Fatal(err)
	}

	var defaults, reshaped shadow
	for _, k := range kernels {
		annotated := false
		for _, f := range k.mod.Funcs {
			annotated = annotated || len(f.Predictions) > 0
		}
		variants := []Options{BaselineOptions()}
		if annotated {
			variants = append(variants, spec(DeconflictDynamic, FaultPlan{}), spec(DeconflictStatic, FaultPlan{}), spec(DeconflictNone, FaultPlan{}))
			for _, fp := range faults {
				variants = append(variants, spec(DeconflictDynamic, fp))
			}
		}
		for _, opts := range variants {
			for _, p := range everyDefaultPipeline(opts) {
				defaults.run(t, k.name, k.mod, opts, p)
			}
		}
		reshaped.run(t, k.name, k.mod, SpecReconOptions(), reshaping)
	}

	unrolling, err := ParsePipeline("analyze,unroll=kernel:inner_header:3,simplify,opt,pdom,predict,deconflict=dynamic,barrier-safety,alloc")
	if err != nil {
		t.Fatal(err)
	}
	reshaped.run(t, "loop-merge nest", buildLoopMergeKernel(6, 2), SpecReconOptions(), unrolling)

	t.Logf("default shapes: %d of %d CFG reads reused; reshaping pipelines: %d of %d", defaults.kept, defaults.reads, reshaped.kept, reshaped.reads)
	// Every default pass is barrier-only or read-only, so only the first
	// shadow of a compile (one read per function) can build.
	if defaults.kept*10 < defaults.reads*7 {
		t.Errorf("default shapes reused %d of %d CFG reads: the record is not being kept", defaults.kept, defaults.reads)
	}
	if reshaped.kept == 0 || reshaped.kept == reshaped.reads {
		t.Errorf("reshaping pipelines reused %d of %d CFG reads: want some kept and some rebuilt", reshaped.kept, reshaped.reads)
	}
}

// plantedKernel branches on a uniform register: r1 is a constant until
// the planted mov copies the thread id into it.
const plantedKernel = `module planted memwords=8
func @k nregs=3 nfregs=0 {
e:
  tid r0
  const r1, #0
  br head
head:
  cbr r1, a, z
a:
  add r2, r1, #1
  br z
z:
  exit
}
`

// TestShadowCatchesPlantedFaults proves the shadow test has teeth, and
// states which half of the rule catches what. A pass that rewrites a
// register definition while declaring BarriersOnly leaves a stale
// divergence analysis in the record, and the shadow must report it. A
// pass that adds an edge under the same false declaration cannot fool
// the record — the CFG half is checked on read, and divergence goes
// with the Info it was computed over — so there the shadow must pass,
// and it is the Info read before the pass that must have stopped being
// Valid and must differ from a rebuild.
func TestShadowCatchesPlantedFaults(t *testing.T) {
	plant := func(name string, edit func(f *ir.Function)) Pass {
		return &pass{name: name, spec: name, effect: BarriersOnly, run: func(c *PassContext) error {
			edit(c.Mod.Funcs[0])
			return nil
		}}
	}
	mov := plant("plant-mov", func(f *ir.Function) {
		f.BlockByName("e").InsertBeforeTerminator(ir.Instr{Op: ir.OpMov, Dst: 1, A: 0, B: ir.NoReg, C: ir.NoReg})
	})
	var before *cfg.Info
	edge := plant("plant-edge", func(f *ir.Function) {
		// a: br z becomes a: cbr r2, z, head — a new back edge.
		a := f.BlockByName("a")
		a.Instrs[len(a.Instrs)-1] = ir.Instr{Op: ir.OpCBr, Dst: ir.NoReg, A: 2, B: ir.NoReg, C: ir.NoReg}
		a.Succs = append(a.Succs, f.BlockByName("head"))
	})
	remember := &pass{name: "remember", spec: "remember", effect: ReadsOnly, run: func(c *PassContext) error {
		before = c.facts.CFG(c.Mod.Funcs[0])
		return nil
	}}

	compile := func(planted Pass) (*Compilation, error) {
		m, err := ir.Parse(plantedKernel)
		if err != nil {
			t.Fatal(err)
		}
		opts := BaselineOptions()
		opts.SkipAllocation = true
		var s shadow
		s.seen = map[*ir.Function]*cfg.Info{}
		return CompilePipeline(m, opts, s.shadowed(newPipeline([]Pass{remember, planted})))
	}

	var stale *staleFacts
	if _, err := compile(mov); !errors.As(err, &stale) || !strings.Contains(stale.msg, "after plant-mov: divergence.Info") {
		t.Errorf("a mov planted by a pass declared BarriersOnly: shadow reported %v, want stale divergence after plant-mov", err)
	}

	comp, err := compile(edge)
	if err != nil {
		t.Fatalf("an edge planted by a pass declared BarriersOnly: %v, want the read check to absorb it", err)
	}
	if before.Valid() {
		t.Error("the Info read before the planted edge still claims to be Valid")
	}
	if reflect.DeepEqual(before, cfg.New(comp.Module.Funcs[0])) {
		t.Error("the Info read before the planted edge equals a rebuild: the planted edge changed nothing")
	}
}

// TestCompilationCannotReachTheRecord walks every type reachable from
// core.Compilation and finds no analysis record, no CFG or divergence
// analysis and no pass context: a Compilation is what callers keep (and
// what ccache retains for the life of the cache), so anything it could
// reach would live as long.
func TestCompilationCannotReachTheRecord(t *testing.T) {
	banned := map[reflect.Type]bool{
		reflect.TypeOf(analyze.Facts{}):   true,
		reflect.TypeOf(cfg.Info{}):        true,
		reflect.TypeOf(cfg.Loop{}):        true,
		reflect.TypeOf(divergence.Info{}): true,
		reflect.TypeOf(PassContext{}):     true,
		reflect.TypeOf(Pipeline{}):        true,
	}
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if banned[typ] {
			t.Errorf("%s reaches %s", path, typ)
		}
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Ptr, reflect.Slice, reflect.Array, reflect.Chan:
			walk(typ.Elem(), path)
		case reflect.Map:
			walk(typ.Key(), path)
			walk(typ.Elem(), path)
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case reflect.Func, reflect.Interface:
			// A func or interface field could hold anything.
			if typ != reflect.TypeOf((*error)(nil)).Elem() {
				t.Errorf("%s is a %s: what it can reach cannot be checked", path, typ.Kind())
			}
		}
	}
	walk(reflect.TypeOf(Compilation{}), "Compilation")
	walk(reflect.TypeOf(SafeCompilation{}), "SafeCompilation")
	if !seen[reflect.TypeOf(ir.Block{})] || !seen[reflect.TypeOf(repair.Report{})] {
		t.Error("the walk did not get as far as ir.Block and repair.Report")
	}
}

// TestOneAnalysisSiteInSource keeps the record the only way to a CFG or
// divergence analysis in the compiler, the analyzer and the repair
// engine: one cfg.New( and no divergence.Analyze( call in their
// non-test sources (the record calls AnalyzeWith, with the callee-roots
// set it keeps).
func TestOneAnalysisSiteInSource(t *testing.T) {
	var code strings.Builder
	for _, dir := range []string{".", "../analyze", "../repair"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(string(data), "\n") {
				if !strings.HasPrefix(strings.TrimSpace(line), "//") {
					code.WriteString(line + "\n")
				}
			}
		}
	}
	for what, want := range map[string]int{`\bcfg\.New\(`: 1, `\bdivergence\.Analyze\(`: 0, `\bdivergence\.AnalyzeWith\(`: 1} {
		if n := len(regexp.MustCompile(what).FindAllString(code.String(), -1)); n != want {
			t.Errorf("%d matches of %s in internal/core, internal/analyze and internal/repair, want %d", n, what, want)
		}
	}
}
