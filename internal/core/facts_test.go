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
	"specrecon/internal/dataflow"
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

func (s *shadow) pass() pass {
	return pass{name: "shadow", spec: "shadow", effect: ReadsOnly, run: func(c *PassContext) error {
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
			fresh := cfg.New(f, nil)
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
	ps := []pass{check}
	for _, p := range p.passes {
		ps = append(ps, p, check)
	}
	return newPipeline(ps)
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

// recordKernel is one kernel of the record's tests with the options it
// is compiled under.
type recordKernel struct {
	name     string
	mod      *ir.Module
	variants []Options
}

// recordKernels is the 500-kernel corpus (auto-annotated with no score
// screen, so the speculative passes have work) and the bundled
// workloads. Each is compiled as the baseline and, when annotated, as
// the speculative build under every deconfliction mode and under each
// fault plan with dynamic deconfliction.
func recordKernels() []recordKernel {
	var kernels []recordKernel
	for _, app := range corpus.Generate(500, 42) {
		mod := app.Module.Clone()
		auto := DefaultAutoDetectOptions()
		auto.MinScore = 0
		AutoAnnotate(mod, auto)
		kernels = append(kernels, recordKernel{name: app.Name, mod: mod})
	}
	for _, w := range workloads.All() {
		kernels = append(kernels, recordKernel{name: w.Name, mod: w.Build(workloads.BuildConfig{}).Module})
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
	for i := range kernels {
		k := &kernels[i]
		k.variants = []Options{BaselineOptions()}
		annotated := false
		for _, f := range k.mod.Funcs {
			annotated = annotated || len(f.Predictions) > 0
		}
		if annotated {
			k.variants = append(k.variants, spec(DeconflictDynamic, FaultPlan{}), spec(DeconflictStatic, FaultPlan{}), spec(DeconflictNone, FaultPlan{}))
			for _, fp := range faults {
				k.variants = append(k.variants, spec(DeconflictDynamic, fp))
			}
		}
	}
	return kernels
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
	reshaping, err := ParsePipeline("barrier-safety,simplify,opt,pdom,predict,deconflict=dynamic,analyze,alloc")
	if err != nil {
		t.Fatal(err)
	}

	var defaults, reshaped shadow
	for _, k := range recordKernels() {
		for _, opts := range k.variants {
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
	plant := func(name string, edit func(f *ir.Function)) pass {
		return pass{name: name, spec: name, effect: BarriersOnly, run: func(c *PassContext) error {
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
	remember := pass{name: "remember", spec: "remember", effect: ReadsOnly, run: func(c *PassContext) error {
		before = c.facts.CFG(c.Mod.Funcs[0])
		return nil
	}}

	compile := func(planted pass) (*Compilation, error) {
		m, err := ir.Parse(plantedKernel)
		if err != nil {
			t.Fatal(err)
		}
		var s shadow
		s.seen = map[*ir.Function]*cfg.Info{}
		return CompilePipeline(m, BaselineOptions(), s.shadowed(newPipeline([]pass{remember, planted})))
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
	if reflect.DeepEqual(before, cfg.New(comp.Module.Funcs[0], nil)) {
		t.Error("the Info read before the planted edge equals a rebuild: the planted edge changed nothing")
	}
}

// TestCompilationCannotReachTheRecord walks every type reachable from
// what a compile or a record taker returns — core.Compilation and
// SafeCompilation, analyze.Report, repair.Report and core.Candidate —
// and finds no analysis record, none of the storage a record recycles
// and no pass context. Those are what callers keep (ccache retains
// Compilations for the life of the cache), so anything they could reach
// would live as long, and a record would be rebuilt under them by the
// next compile that took it from the pool. The storage banned is every
// type of an analysis package that a record holds — found by walking
// analyze.Facts itself, so a new storage type is banned as it is added —
// and the scratch results the dataflow analyses cut from it.
func TestCompilationCannotReachTheRecord(t *testing.T) {
	banned := map[reflect.Type]bool{
		reflect.TypeOf(analyze.Facts{}):       true,
		reflect.TypeOf(analyze.FuncStates{}):  true,
		reflect.TypeOf(cfg.Info{}):            true,
		reflect.TypeOf(cfg.Loop{}):            true,
		reflect.TypeOf(divergence.Info{}):     true,
		reflect.TypeOf(dataflow.Scratch{}):    true,
		reflect.TypeOf(dataflow.Result{}):     true,
		reflect.TypeOf(dataflow.PointSets{}):  true,
		reflect.TypeOf(dataflow.FuncPoints{}): true,
		reflect.TypeOf(dataflow.Interval{}):   true,
		reflect.TypeOf(dataflow.Bits{}):       true,
		reflect.TypeOf(PassContext{}):         true,
		reflect.TypeOf(Pipeline{}):            true,
	}
	held := map[reflect.Type]bool{}
	var hold func(typ reflect.Type)
	hold = func(typ reflect.Type) {
		if held[typ] {
			return
		}
		held[typ] = true
		if pkg := typ.PkgPath(); typ.Name() != "" && strings.HasPrefix(pkg, "specrecon/internal/") && pkg != "specrecon/internal/ir" {
			banned[typ] = true
		}
		switch typ.Kind() {
		case reflect.Ptr, reflect.Slice, reflect.Array:
			hold(typ.Elem())
		case reflect.Map:
			hold(typ.Key())
			hold(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				hold(typ.Field(i).Type)
			}
		}
	}
	hold(reflect.TypeOf(analyze.Facts{}))

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
	for _, out := range []any{Compilation{}, SafeCompilation{}, analyze.Report{}, repair.Report{}, Candidate{}} {
		walk(reflect.TypeOf(out), reflect.TypeOf(out).String())
	}
	if !seen[reflect.TypeOf(ir.Block{})] || !seen[reflect.TypeOf(analyze.Diagnostic{})] {
		t.Error("the walk did not get as far as ir.Block and analyze.Diagnostic")
	}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(cfg.Loop{}), reflect.TypeOf(divergence.Info{}), reflect.TypeOf(dataflow.Interval{}), reflect.TypeOf(analyze.FuncStates{}),
	} {
		if !held[typ] {
			t.Errorf("the walk over analyze.Facts did not find %s, which a record holds", typ)
		}
	}
	// The efficiency estimate's storage types are unexported: named.
	for _, name := range []string{"analyze.estimator", "analyze.fnEstimate"} {
		found := false
		for typ := range held {
			found = found || typ.String() == name && banned[typ]
		}
		if !found {
			t.Errorf("the banned set lacks %s, the efficiency estimate's storage a record holds", name)
		}
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

// recordView prints what a compile returns that its analysis record
// fed: the module, the barriers, conflicts and assignment, the remarks,
// the diagnostics, the repair report and the pass statistics without
// their wall times — or the error.
func recordView(c *Compilation, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	b.WriteString(ir.Print(c.Module))
	for _, bi := range c.Barriers {
		fn := ""
		if bi.Fn != nil {
			fn = bi.Fn.Name
		}
		fmt.Fprintf(&b, "barrier b%d %s %s %s\n", bi.ID, bi.Kind, fn, bi.Callee)
	}
	for _, cp := range c.Conflicts {
		fmt.Fprintf(&b, "conflict %s b%d b%d\n", cp.Fn.Name, cp.A, cp.B)
	}
	fmt.Fprintf(&b, "assignment %v\n", c.BarrierAssignment)
	fmt.Fprintf(&b, "static-eff %v\n", c.StaticEff)
	for _, r := range c.Remarks {
		fmt.Fprintf(&b, "remark %+v\n", r)
	}
	for _, d := range c.Diagnostics {
		fmt.Fprintf(&b, "diagnostic %+v\n", d)
	}
	if c.RepairReport != nil {
		fmt.Fprintf(&b, "repair %+v\n", *c.RepairReport)
	}
	for _, ps := range c.PassStats {
		ps.Wall = 0
		fmt.Fprintf(&b, "stat %+v\n", ps)
	}
	return b.String()
}

// calleeRootKernel branches on what a call returns: its branch is
// divergent only because @lane_of is one of the module's callee roots.
const calleeRootKernel = `module calleeroot memwords=8
func @k nregs=3 nfregs=0 {
e:
  call @lane_of
  cbr r0, a, z
a:
  add r1, r0, #1
  br z
z:
  exit
}
func @lane_of nregs=1 nfregs=0 {
x:
  tid r0
  ret
}
`

// uniformKernel branches on a register that is uniform wherever it is
// written, and it is written in every block of a chain: a block
// wrongly marked divergent there makes the branch divergent.
const uniformKernel = `module uniform memwords=8
func @k nregs=3 nfregs=0 {
e:
  tid r0
  br b1
b1:
  const r1, #1
  br b2
b2:
  const r1, #2
  br b3
b3:
  const r1, #3
  br b4
b4:
  const r1, #4
  br b5
b5:
  const r1, #5
  br b6
b6:
  const r1, #6
  cbr r1, d, z
d:
  add r2, r1, #1
  br z
z:
  exit
}
`

// TestRecycledRecordMatchesFresh holds the recycling of analysis
// records to the rule that a retired record is a new one with dirty
// storage: every kernel of the record's tests, one whose divergence
// runs through a call and one with no divergence at all, under every
// variant, verified and repaired, compiled into a record whose last
// compile was of a larger, unrelated module, returns what a compile
// into an empty record returns. A Compilation kept from an early
// compile still prints as its fresh twin after every later compile has
// rebuilt its record's storage.
func TestRecycledRecordMatchesFresh(t *testing.T) {
	kernels := recordKernels()
	for _, src := range []string{calleeRootKernel, uniformKernel} {
		m, err := ir.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		kernels = append(kernels, recordKernel{name: m.Name, mod: m, variants: []Options{BaselineOptions()}})
	}
	big := kernels[0].mod
	for _, k := range kernels {
		if k.mod.NumInstrs() > big.NumInstrs() {
			big = k.mod
		}
	}
	// The verifying pipeline runs the analyzer's error view, and the
	// repairing one with the analyze pass the full report: between them
	// every pass and every check.
	pipes := func(opts Options) []*Pipeline {
		return []*Pipeline{SafePipelineFor(opts), pipelineWith(opts, "repair", "analyze")}
	}
	bigOpts := SpecReconOptions()
	bigPipe := pipes(bigOpts)[1]

	type kept struct {
		comp *Compilation
		want string
	}
	var keep []kept
	var recycled analyze.Facts
	n := 0
	for _, k := range kernels {
		for _, opts := range k.variants {
			for _, p := range pipes(opts) {
				want := recordView(compileInto(new(analyze.Facts), k.mod, opts, p))
				if _, err := compileInto(&recycled, big, bigOpts, bigPipe); err != nil {
					t.Fatalf("the larger module: %v", err)
				}
				comp, err := compileInto(&recycled, k.mod, opts, p)
				if got := recordView(comp, err); got != want {
					t.Fatalf("%s under %q: a compile into a recycled record differs from one into an empty record:\n%s\nwant:\n%s", k.name, p.Spec(), got, want)
				}
				if n++; err == nil && n%97 == 0 {
					keep = append(keep, kept{comp, want})
				}
			}
		}
	}
	if len(keep) < 10 {
		t.Fatalf("kept %d compilations of %d, want at least 10", len(keep), n)
	}
	for _, c := range keep {
		if got := recordView(c.comp, nil); got != c.want {
			t.Fatalf("a kept Compilation changed after later compiles recycled its record:\n%s\nwant:\n%s", got, c.want)
		}
	}
}

// diagnoseAllocsMax is what an uncached Diagnose of app003 of the seed-42
// corpus (one divergent branch, one barrier) allocates under each of the
// threshold-study variants once the record pool is warm: the module's
// clone, the Compilation with its report, remarks, pass statistics and
// barrier assignment, and the pass context.
const diagnoseAllocsMax = 35

// TestDiagnoseAllocs pins diagnoseAllocsMax under the PDOM build and the
// soft-barrier thresholds 8 and 24.
func TestDiagnoseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	app := corpus.Generate(4, 42)[3]
	if app.Name != "app003-divergent-cond" {
		t.Fatalf("corpus app 3 is %s, want app003-divergent-cond", app.Name)
	}
	at := func(threshold int) Options {
		o := SpecReconOptions()
		o.ThresholdOverride = threshold
		return o
	}
	for _, o := range []Options{BaselineOptions(), at(8), at(24)} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Diagnose(app.Module, o); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > diagnoseAllocsMax {
			t.Errorf("Diagnose(%s, %s threshold %d) allocates %v objects, want at most %d",
				app.Name, PipelineFor(o).Spec(), o.ThresholdOverride, allocs, diagnoseAllocsMax)
		}
	}
}
