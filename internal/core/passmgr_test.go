package core

import (
	"strings"
	"sync"
	"testing"

	"specrecon/internal/analyze"
	"specrecon/internal/ir"
)

func init() {
	// breakir is a deliberately IR-breaking pass used by the negative
	// inter-pass verification test: it deletes the terminator of the
	// first function's last block.
	registerSimplePass("breakir",
		"test-only pass that corrupts the module",
		Rewrites,
		func(c *PassContext) error {
			f := c.Mod.Funcs[0]
			b := f.Blocks[len(f.Blocks)-1]
			b.Instrs = b.Instrs[:len(b.Instrs)-1]
			return nil
		})
}

// TestDefaultPipelineSpecs pins the default pass orders: any change to
// what Compile runs for the stock option sets must be deliberate.
func TestDefaultPipelineSpecs(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"baseline", BaselineOptions(), "pdom,alloc"},
		{"specrecon", SpecReconOptions(), "pdom,predict,deconflict=dynamic,alloc"},
		{"static", func() Options {
			o := SpecReconOptions()
			o.Deconflict = DeconflictStatic
			return o
		}(), "pdom,predict,deconflict=static,alloc"},
		{"none", func() Options {
			o := SpecReconOptions()
			o.Deconflict = DeconflictNone
			return o
		}(), "pdom,predict,alloc"},
		{"skip-alloc", Options{InsertPDOM: true, SkipAllocation: true, ThresholdOverride: -1}, "pdom"},
		{"empty", Options{SkipAllocation: true}, ""},
	}
	for _, tc := range cases {
		if got := PipelineFor(tc.opts).Spec(); got != tc.want {
			t.Errorf("%s: PipelineFor spec = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestParsePipelineRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"pdom,alloc",
		"pdom,predict,deconflict=dynamic,alloc",
		"pdom,predict,deconflict=static,simplify,alloc",
		"autodetect,pdom,predict,deconflict=dynamic,alloc",
		"opt,analyze,pdom",
		"unroll=kernel:header:2,inline=a:b,coarsen=kernel:4,outline=k:blk:fn",
	} {
		p, err := ParsePipeline(spec)
		if err != nil {
			t.Errorf("ParsePipeline(%q): %v", spec, err)
			continue
		}
		if got := p.Spec(); got != spec {
			t.Errorf("round trip: parsed %q, rendered %q", spec, got)
		}
	}

	// A bare "deconflict" normalizes to its default mode.
	p, err := ParsePipeline("deconflict")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Spec(); got != "deconflict=dynamic" {
		t.Errorf("bare deconflict rendered %q, want %q", got, "deconflict=dynamic")
	}

	// Pass name listing follows pipeline order.
	p, err = ParsePipeline("pdom,predict,alloc")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(p.Passes(), " "); got != "pdom predict alloc" {
		t.Errorf("Passes() = %q", got)
	}
}

func TestParsePipelineErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"", "empty pipeline"},
		{"pdom,,alloc", "empty element"},
		{"nosuchpass", `unknown pass "nosuchpass"`},
		{"pdom,pdom", `duplicate pass "pdom"`},
		{"deconflict=dynamic,deconflict=static", `duplicate pass "deconflict"`},
		{"deconflict=bogus", `unknown mode "bogus"`},
		{"pdom=arg", "takes no argument"},
		{"unroll=kernel:2", "want fn:header:factor"},
		{"unroll=kernel:header:x", "bad factor"},
		{"inline=onlycaller", "want caller:callee"},
		{"coarsen=kernel:many", "bad factor"},
		{"autodetect=notanumber", "bad min score"},
	}
	for _, tc := range cases {
		_, err := ParsePipeline(tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParsePipeline(%q) = %v, want error containing %q", tc.spec, err, tc.want)
		}
	}
}

// TestSpecPipelineMatchesCompile checks that a spec-built pipeline
// reproduces Compile's output exactly for both stock option sets.
func TestSpecPipelineMatchesCompile(t *testing.T) {
	for _, tc := range []struct {
		opts Options
		spec string
	}{
		{BaselineOptions(), "pdom,alloc"},
		{SpecReconOptions(), "pdom,predict,deconflict=dynamic,alloc"},
	} {
		m := buildListing1(64, 8)
		want, err := Compile(m, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := ParsePipeline(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CompilePipeline(m, tc.opts, pipe)
		if err != nil {
			t.Fatal(err)
		}
		if ir.Print(got.Module) != ir.Print(want.Module) {
			t.Errorf("spec pipeline %q and Compile disagree:\n--- spec ---\n%s\n--- Compile ---\n%s",
				tc.spec, ir.Print(got.Module), ir.Print(want.Module))
		}
		if got.Pipeline != want.Pipeline {
			t.Errorf("Pipeline field: %q vs %q", got.Pipeline, want.Pipeline)
		}
	}
}

func TestPassStatsInstrumentation(t *testing.T) {
	m := buildListing1(64, 8)
	comp, err := Compile(m, SpecReconOptions())
	if err != nil {
		t.Fatal(err)
	}
	if comp.Pipeline != "pdom,predict,deconflict=dynamic,alloc" {
		t.Errorf("Pipeline = %q", comp.Pipeline)
	}
	var order []string
	for _, s := range comp.PassStats {
		order = append(order, s.Pass)
	}
	if got := strings.Join(order, " "); got != "pdom predict deconflict alloc" {
		t.Fatalf("PassStats order = %q", got)
	}
	byName := map[string]PassStat{}
	for _, s := range comp.PassStats {
		byName[s.Pass] = s
	}
	if s := byName["pdom"]; s.InstrDelta() <= 0 || s.BarriersMinted == 0 || s.BarrierOpDelta() <= 0 || !s.Changed() {
		t.Errorf("pdom stat shows no work: %+v", s)
	}
	if s := byName["predict"]; s.InstrDelta() <= 0 || s.BarriersMinted == 0 {
		t.Errorf("predict stat shows no work: %+v", s)
	}
	if s := byName["deconflict"]; s.InstrDelta() <= 0 || s.Remarks == 0 {
		t.Errorf("deconflict stat shows no cancels or remarks: %+v", s)
	}
	if s := byName["alloc"]; s.InstrDelta() != 0 || s.BarriersMinted != 0 {
		t.Errorf("alloc should not change code size: %+v", s)
	}
	if comp.CompileTime <= 0 {
		t.Error("CompileTime not recorded")
	}
	if len(comp.Remarks) == 0 {
		t.Fatal("no remarks emitted")
	}
	// Every remark carries its originating pass, and the streams agree
	// with the per-pass counters.
	counts := map[string]int{}
	for _, r := range comp.Remarks {
		if r.Pass == "" {
			t.Errorf("remark without pass attribution: %+v", r)
		}
		counts[r.Pass]++
	}
	for _, s := range comp.PassStats {
		if counts[s.Pass] != s.Remarks {
			t.Errorf("pass %s: stat says %d remarks, stream has %d", s.Pass, s.Remarks, counts[s.Pass])
		}
	}
}

// TestVerifyEachNamesBreakingPass is the negative test for inter-pass
// verification: a pass that corrupts the IR is caught immediately, and
// the error names it.
func TestVerifyEachNamesBreakingPass(t *testing.T) {
	m := buildListing1(64, 8)
	pipe, err := ParsePipeline("pdom,breakir,alloc")
	if err != nil {
		t.Fatal(err)
	}
	pipe.VerifyEach = true
	_, err = CompilePipeline(m, BaselineOptions(), pipe)
	if err == nil {
		t.Fatal("verify-each did not catch the IR-breaking pass")
	}
	if !strings.Contains(err.Error(), `after pass "breakir"`) {
		t.Errorf("error does not name the breaking pass: %v", err)
	}

	// Without verify-each the breakage is only caught by the final
	// whole-module check, attributed to no pass in particular.
	_, err = CompilePipeline(buildListing1(64, 8), BaselineOptions(), func() *Pipeline {
		p, perr := ParsePipeline("pdom,breakir,alloc")
		if perr != nil {
			t.Fatal(perr)
		}
		return p
	}())
	if err == nil || !strings.Contains(err.Error(), "output module invalid") {
		t.Errorf("final verification missed the breakage: %v", err)
	}
}

// TestVerifyEachCleanPipeline runs the full default pipeline under
// verify-each on a real kernel: every intermediate module must be valid.
func TestVerifyEachCleanPipeline(t *testing.T) {
	pipe := PipelineFor(SpecReconOptions())
	pipe.VerifyEach = true
	if _, err := CompilePipeline(buildListing1(64, 8), SpecReconOptions(), pipe); err != nil {
		t.Fatal(err)
	}
}

// TestLintPass checks the analyze pass as a lint: its warnings surface
// as remarks and the module is untouched.
func TestLintPass(t *testing.T) {
	m := ir.NewModule("orphan")
	f := m.NewFunction("kernel")
	b := ir.NewBuilder(f)
	e := f.NewBlock("entry")
	b.SetBlock(e)
	b.Exit()
	dead := f.NewBlock("dead")
	b.SetBlock(dead)
	b.Exit()

	before := ir.Print(m)
	pipe, err := ParsePipeline("analyze")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := CompilePipeline(m, Options{SkipAllocation: true}, pipe)
	if err != nil {
		t.Fatal(err)
	}
	if got := ir.Print(comp.Module); got != before {
		t.Errorf("analyze (analysis) modified the module:\n%s", got)
	}
	found := false
	for _, r := range comp.Remarks {
		if r.Pass == "analyze" && r.Fn == "kernel" && r.Block == "dead" && strings.Contains(r.Msg, "unreachable") {
			found = true
		}
	}
	if !found {
		t.Errorf("analyze pass did not report the unreachable block; remarks: %v", comp.Remarks)
	}
	// Every diagnostic is a remark, and the warnings among them are the
	// analyzer's own.
	if got, want := len(comp.Remarks), len(comp.Diagnostics); got != want {
		t.Errorf("analyze pass emitted %d remarks for %d diagnostics", got, want)
	}
	if got, want := len(analyze.Filter(comp.Diagnostics, analyze.SeverityWarning)), len(lintWarnings(m)); got != want {
		t.Errorf("analyze pass reported %d warnings, the analyzer returns %d", got, want)
	}
}

// TestRegisteredPasses sanity-checks the registry contents.
func TestRegisteredPasses(t *testing.T) {
	infos := RegisteredPasses()
	byName := map[string]PassInfo{}
	for _, info := range infos {
		byName[info.Name] = info
	}
	for _, want := range []string{
		"pdom", "predict", "deconflict", "alloc", "analyze",
		"simplify", "opt", "autodetect", "unroll", "inline", "outline", "coarsen",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("pass %q not registered", want)
		}
	}
	if !byName["analyze"].Analysis {
		t.Error("analyze must be registered as an analysis pass")
	}
	if byName["pdom"].Analysis {
		t.Error("pdom must be registered as a transform")
	}
	// The listing is sorted for stable CLI output.
	for i := 1; i < len(infos); i++ {
		if infos[i-1].Name >= infos[i].Name {
			t.Errorf("RegisteredPasses not sorted: %q before %q", infos[i-1].Name, infos[i].Name)
		}
	}
}

// TestRemarkString pins the human-readable remark format.
func TestRemarkString(t *testing.T) {
	cases := []struct {
		r    Remark
		want string
	}{
		{Remark{Pass: "pdom", Fn: "kernel", Block: "b1", Msg: "x"}, "pdom: kernel.b1: x"},
		{Remark{Pass: "opt", Fn: "kernel", Msg: "x"}, "opt: kernel: x"},
		{Remark{Pass: "opt", Msg: "x"}, "opt: x"},
	}
	for _, tc := range cases {
		if got := tc.r.String(); got != tc.want {
			t.Errorf("Remark.String() = %q, want %q", got, tc.want)
		}
	}
}

// TestDefaultPipelinesAreBuiltOnce: a default pipeline is built the
// first time its shape is asked for; after that the internal entry
// points get the shared one for a map lookup and no allocation, and the
// exported constructors hand out distinct copies of it.
func TestDefaultPipelinesAreBuiltOnce(t *testing.T) {
	opts := SpecReconOptions()
	shared := pipelineWith(opts, "repair", "analyze")
	if want := "pdom,predict,deconflict=dynamic,repair,analyze,alloc"; shared.Spec() != want {
		t.Fatalf("spec = %q, want %q", shared.Spec(), want)
	}
	other := opts
	other.ThresholdOverride = 8 // not part of the shape
	if allocs := testing.AllocsPerRun(100, func() {
		if pipelineWith(other, "repair", "analyze") != shared {
			t.Fatal("the same shape built a second pipeline")
		}
	}); allocs != 0 {
		t.Errorf("looking up a built default pipeline allocates %v objects, want 0", allocs)
	}
	a, b := SafePipelineFor(opts), SafePipelineFor(opts)
	if a == b || a == pipelineWith(opts, "barrier-safety", "") {
		t.Error("SafePipelineFor handed out a shared *Pipeline")
	}
	if a.Spec() != b.Spec() || len(a.passes) == 0 || &a.passes[0] != &b.passes[0] {
		t.Error("two SafePipelineFor results do not share one pass list")
	}
}

// TestDefaultPipelinesAreNotSharedMutably: the default pipelines are
// built once per shape, but the *Pipeline a caller is handed is its own.
// One goroutine sets VerifyEach and an Observer on its SafePipelineFor
// and compiles through it while another asks for the same shape and
// compiles through the entry points that use the shared pipelines
// (CompileSafe, Diagnose); the second must see neither hook, and the
// observer must hear exactly the first's passes. Run under -race (make
// check does): a shared struct would be a write in one goroutine against
// run's read in the other.
func TestDefaultPipelinesAreNotSharedMutably(t *testing.T) {
	mod := buildListing1(64, 8)
	opts := SpecReconOptions()
	passes := len(SafePipelineFor(opts).Passes())

	const rounds = 50
	var wg sync.WaitGroup
	wg.Add(2)
	observed := 0
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			pipe := SafePipelineFor(opts)
			pipe.VerifyEach = true
			pipe.Observer = func(string, *ir.Module) { observed++ }
			if _, err := CompilePipeline(mod, opts, pipe); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if pipe := SafePipelineFor(opts); pipe.VerifyEach || pipe.Observer != nil {
				t.Error("SafePipelineFor handed out a pipeline carrying another caller's hooks")
			}
			if _, err := CompileSafe(mod, opts); err != nil {
				t.Error(err)
			}
			if _, err := Diagnose(mod, opts); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	if observed != rounds*passes {
		t.Errorf("the observer heard %d passes, want %d: %d compiles of %d passes", observed, rounds*passes, rounds, passes)
	}
}
