package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"specrecon/internal/analyze"
	"specrecon/internal/ir"
)

// The pass manager. Every transform and analysis of this package is a
// registered, named Pass; Compile assembles them into a Pipeline (either
// derived from Options or parsed from a spec string such as
// "pdom,predict,deconflict=dynamic,alloc") and the manager runs them in
// order over a shared PassContext, instrumenting each pass with wall
// time, instruction and barrier-operation deltas, and an LLVM-style
// remarks stream. Debug builds can additionally verify the module after
// every pass, attributing the first structural breakage to the pass that
// caused it.

// Remark is one structured diagnostic emitted by a pass — the pipeline's
// optimization-remarks stream. Fn and Block are empty for module-level
// remarks.
type Remark struct {
	Pass  string
	Fn    string
	Block string
	Msg   string
}

func (r Remark) String() string {
	loc := r.Fn
	if r.Block != "" {
		loc += "." + r.Block
	}
	if loc == "" {
		return fmt.Sprintf("%s: %s", r.Pass, r.Msg)
	}
	return fmt.Sprintf("%s: %s: %s", r.Pass, loc, r.Msg)
}

// PassStat is the instrumentation record for one executed pass.
type PassStat struct {
	Pass string
	Wall time.Duration
	// InstrsBefore/After are total module instruction counts around the
	// pass; the delta is the pass's static code-size cost.
	InstrsBefore int
	InstrsAfter  int
	// BarrierOpsBefore/After count barrier operations (join, wait,
	// cancel, arrived) around the pass.
	BarrierOpsBefore int
	BarrierOpsAfter  int
	// BarriersMinted counts virtual barriers the pass created.
	BarriersMinted int
	// Remarks counts remarks the pass emitted.
	Remarks int
}

// InstrDelta returns the pass's net instruction-count change.
func (s PassStat) InstrDelta() int { return s.InstrsAfter - s.InstrsBefore }

// BarrierOpDelta returns the pass's net barrier-operation change.
func (s PassStat) BarrierOpDelta() int { return s.BarrierOpsAfter - s.BarrierOpsBefore }

// Changed reports whether the pass altered the module's size or
// synchronization (a cheap dirtiness signal; passes rewriting in place
// without growing the module may still have changed it).
func (s PassStat) Changed() bool {
	return s.InstrDelta() != 0 || s.BarrierOpDelta() != 0 || s.BarriersMinted != 0
}

// PassContext carries the pipeline's shared working state into every
// pass: the module under transformation, the compile options, the
// virtual-barrier table, the per-function speculative waits recorded by
// the predict pass for the deconflict pass, and the remarks sink.
type PassContext struct {
	Mod  *ir.Module
	Opts Options

	barriers []BarrierInfo
	nextBar  int
	result   *Compilation

	// specWaits records, in function order, the speculative waits the
	// predict pass placed; the deconflict pass consumes them.
	specWaits []funcWaits

	// conflictSeen counts conflicts resolved across the whole module, so
	// the skip-conflict fault's ordinal is module-wide.
	conflictSeen int

	// current is the running pass's name, stamped onto remarks.
	current string

	// facts is the compile's analysis record: every pass reads a
	// function's CFG and divergence analysis through it, and run drops
	// what a pass's declared Effect does not preserve. It is reachable
	// from the context only, never from the Compilation.
	facts *analyze.Facts

	// fullReport has barrier-safety keep the analyzer's full report,
	// not only its errors (CompileSafe).
	fullReport bool
}

// funcWaits pairs a function with the speculative waits lowered into it.
type funcWaits struct {
	f     *ir.Function
	waits []specWait
}

// Remarkf appends a remark attributed to the running pass. fn and block
// may be empty for module-level remarks.
func (c *PassContext) Remarkf(fn, block, format string, args ...any) {
	c.result.Remarks = append(c.result.Remarks, Remark{
		Pass:  c.current,
		Fn:    fn,
		Block: block,
		Msg:   fmt.Sprintf(format, args...),
	})
}

// Pass is one unit of the compilation pipeline.
type Pass interface {
	// Name is the pass's registry name, without any argument.
	Name() string
	// Spec is the pass as it appears in a pipeline spec string: the
	// name, plus "=arg" when the pass was built with an argument.
	Spec() string
	// Effect declares what the pass may change.
	Effect() Effect
	Run(c *PassContext) error
}

// Effect declares what a pass may change, which decides what of the
// compile's analysis record survives it. The CFG half of the record
// needs no declaration (it is checked against the graph on every read);
// the divergence half is kept only across passes that declare
// BarriersOnly or ReadsOnly. The zero value preserves nothing, so a pass
// that declares nothing is safe.
type Effect int

const (
	// Rewrites is a pass that may change anything.
	Rewrites Effect = iota
	// BarriersOnly is a pass that inserts, removes or renumbers join,
	// wait and cancel operations and touches nothing else: no block, no
	// edge and no register definition (arrived writes a register, so a
	// pass placing or removing one does not qualify).
	BarriersOnly
	// ReadsOnly is an analysis pass: it reads the module and may emit
	// remarks.
	ReadsOnly
)

// pass is the concrete Pass used by every registration.
type pass struct {
	name   string
	spec   string
	effect Effect
	run    func(c *PassContext) error
}

func (p *pass) Name() string             { return p.name }
func (p *pass) Spec() string             { return p.spec }
func (p *pass) Effect() Effect           { return p.effect }
func (p *pass) Run(c *PassContext) error { return p.run(c) }

// PassInfo describes one registered pass factory.
type PassInfo struct {
	Name        string
	Description string
	// Analysis marks read-only passes.
	Analysis bool
	// Build constructs a pass instance. arg is the text after "=" in
	// the pipeline spec ("" when absent); factories reject arguments
	// they do not accept.
	Build func(arg string) (Pass, error)
}

var passRegistry = map[string]PassInfo{}

// RegisterPass adds a pass factory to the registry. Transform files call
// it from init; registering the same name twice is a programming error.
func RegisterPass(info PassInfo) {
	if info.Name == "" || info.Build == nil {
		panic("core: RegisterPass: name and build function are required")
	}
	if _, dup := passRegistry[info.Name]; dup {
		panic(fmt.Sprintf("core: RegisterPass: duplicate pass %q", info.Name))
	}
	passRegistry[info.Name] = info
}

// RegisteredPasses lists every registered pass, sorted by name.
func RegisteredPasses() []PassInfo {
	out := make([]PassInfo, 0, len(passRegistry))
	for _, info := range passRegistry {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// specOf renders a pass as it appears in a pipeline spec string.
func specOf(name, arg string) string {
	if arg == "" {
		return name
	}
	return name + "=" + arg
}

// registerSimplePass registers an argument-free pass.
func registerSimplePass(name, description string, effect Effect, run func(c *PassContext) error) {
	ps := &pass{name: name, spec: name, effect: effect, run: run}
	RegisterPass(PassInfo{
		Name:        name,
		Description: description,
		Analysis:    effect == ReadsOnly,
		Build: func(arg string) (Pass, error) {
			if arg != "" {
				return nil, fmt.Errorf("pass %q takes no argument (got %q)", name, arg)
			}
			return ps, nil
		},
	})
}

// Pipeline is an ordered list of pass instances plus the manager's debug
// hooks. Pass instances are immutable, and so are passes and spec once
// the pipeline is built: pipelines of one shape share them.
type Pipeline struct {
	passes []Pass
	spec   string

	// VerifyEach runs ir.VerifyModule after every pass; the first
	// failure is reported against the pass that introduced it.
	VerifyEach bool
	// Observer, when set, is called with the module after each pass
	// (before verification) — the hook behind -dump-ir-after.
	Observer func(pass string, m *ir.Module)
}

// Passes returns the pipeline's pass names in order.
func (p *Pipeline) Passes() []string {
	out := make([]string, len(p.passes))
	for i, ps := range p.passes {
		out[i] = ps.Name()
	}
	return out
}

// Spec renders the pipeline back to its spec string; ParsePipeline and
// Spec round-trip.
func (p *Pipeline) Spec() string { return p.spec }

// newPipeline returns the pipeline of the given passes.
func newPipeline(passes []Pass) *Pipeline {
	specs := make([]string, len(passes))
	for i, ps := range passes {
		specs[i] = ps.Spec()
	}
	return &Pipeline{passes: passes, spec: strings.Join(specs, ",")}
}

// ParsePipeline parses a spec string like
// "pdom,predict,deconflict=dynamic,alloc" into a pipeline. Every element
// is a registered pass name with an optional "=arg"; unknown and
// duplicate passes are errors.
func ParsePipeline(spec string) (*Pipeline, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("core: empty pipeline spec")
	}
	var passes []Pass
	seen := map[string]bool{}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			return nil, fmt.Errorf("core: pipeline spec %q has an empty element", spec)
		}
		name, arg := item, ""
		if i := strings.IndexByte(item, '='); i >= 0 {
			name, arg = item[:i], item[i+1:]
		}
		info, ok := passRegistry[name]
		if !ok {
			return nil, fmt.Errorf("core: unknown pass %q (known: %s)", name, strings.Join(passNames(), ", "))
		}
		if seen[name] {
			return nil, fmt.Errorf("core: duplicate pass %q in pipeline %q", name, spec)
		}
		seen[name] = true
		ps, err := info.Build(arg)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		passes = append(passes, ps)
	}
	return newPipeline(passes), nil
}

func passNames() []string {
	names := make([]string, 0, len(passRegistry))
	for n := range passRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PipelineFor derives the default pipeline from compile options — the
// exact sequence the pre-pass-manager Compile hard-coded:
//
//	baseline:  pdom,alloc
//	specrecon: pdom,predict,deconflict=<mode>,alloc
//
// When Options.Faults carries inject-layer faults, an "inject" pass is
// appended after deconfliction (so faults perturb the final barrier
// layout) and before allocation (so they are stated in virtual ids).
func PipelineFor(opts Options) *Pipeline { return pipelineWith(opts, "", "").own() }

// own returns a copy of a shared pipeline for a caller to set VerifyEach
// and Observer on.
func (p *Pipeline) own() *Pipeline {
	cp := *p
	return &cp
}

// shape is what a default pipeline depends on: the options that select
// passes and the passes put in front of register allocation.
type shape struct {
	pdom, predict, inject, skipAlloc bool
	deconflict                       DeconflictMode
	before                           [2]string
}

// defaults memoizes the default pipeline of every shape asked for
// (shape -> *Pipeline).
var defaults sync.Map

// pipelineWith is PipelineFor with up to two named argument-free passes
// ("" for none) put in front of register allocation — the slot every
// verifying, repairing and reporting variant of the default pipeline
// uses, because there the barrier layout is final and still stated in
// virtual ids — or at the end when allocation is skipped. The passes
// come straight from the registry: no spec string is parsed. The
// pipeline is built once per shape and shared, so it is the caller's to
// run but not to set hooks on (own).
func pipelineWith(opts Options, before1, before2 string) *Pipeline {
	sh := shape{opts.InsertPDOM, opts.ApplyPredictions, opts.Faults.injectLayer(), opts.SkipAllocation,
		opts.Deconflict, [2]string{before1, before2}}
	if p, ok := defaults.Load(sh); ok {
		return p.(*Pipeline)
	}
	var passes []Pass
	add := func(name, arg string) {
		if name == "" {
			return
		}
		ps, err := passRegistry[name].Build(arg)
		if err != nil {
			// The registry is populated at init; default passes cannot fail.
			panic(fmt.Sprintf("core: default pipeline: %v", err))
		}
		passes = append(passes, ps)
	}
	if sh.pdom {
		add("pdom", "")
	}
	if sh.predict {
		add("predict", "")
		if sh.deconflict != DeconflictNone {
			add("deconflict", sh.deconflict.String())
		}
	}
	if sh.inject {
		add("inject", "")
	}
	add(before1, "")
	add(before2, "")
	if !sh.skipAlloc {
		add("alloc", "")
	}
	p, _ := defaults.LoadOrStore(sh, newPipeline(passes))
	return p.(*Pipeline)
}

// run executes the pipeline over the context, instrumenting each pass.
func (p *Pipeline) run(c *PassContext) error {
	c.result.PassStats = make([]PassStat, 0, len(p.passes))
	// One pass's counts after are the next one's before.
	instrs, barOps := c.Mod.NumInstrs(), c.Mod.NumBarrierOps()
	for _, ps := range p.passes {
		name := ps.Name()
		instrsBefore, barOpsBefore := instrs, barOps
		mintedBefore := len(c.barriers)
		remarksBefore := len(c.result.Remarks)

		c.current = name
		start := time.Now()
		err := ps.Run(c)
		wall := time.Since(start)
		c.current = ""
		if err != nil {
			return fmt.Errorf("pass %q: %w", name, err)
		}
		if e := ps.Effect(); e != BarriersOnly && e != ReadsOnly {
			c.facts.Invalidate()
		}

		instrs, barOps = c.Mod.NumInstrs(), c.Mod.NumBarrierOps()
		c.result.PassStats = append(c.result.PassStats, PassStat{
			Pass:             name,
			Wall:             wall,
			InstrsBefore:     instrsBefore,
			InstrsAfter:      instrs,
			BarrierOpsBefore: barOpsBefore,
			BarrierOpsAfter:  barOps,
			BarriersMinted:   len(c.barriers) - mintedBefore,
			Remarks:          len(c.result.Remarks) - remarksBefore,
		})

		if p.Observer != nil {
			p.Observer(name, c.Mod)
		}
		if p.VerifyEach {
			if err := ir.VerifyModule(c.Mod); err != nil {
				return fmt.Errorf("module invalid after pass %q: %w", name, err)
			}
		}
	}
	return nil
}
