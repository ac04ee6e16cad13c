package core

import (
	"cmp"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"specrecon/internal/analyze"
	"specrecon/internal/ir"
)

// The pass manager. Every transform and analysis of this package is a
// named row of one table, passes; Compile assembles them into a Pipeline
// (either derived from Options or parsed from a spec string such as
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

// passDef is one row of the pass table: what the pass does, what it may
// change, and its body. A pass without an argument has run; a pass with
// one has build, which parses the "=arg" text into the body once, when a
// pipeline is built. bare is the argument a bare name stands for.
type passDef struct {
	desc   string
	effect Effect
	run    func(c *PassContext) error
	build  func(arg string) (func(c *PassContext) error, error)
	bare   string
}

// passes is every pass the compiler can run, by name.
var passes = map[string]passDef{
	"pdom": {desc: "insert baseline post-dominator convergence barriers at divergent branches", effect: BarriersOnly,
		run: func(c *PassContext) error {
			for _, f := range c.Mod.Funcs {
				c.insertPDOM(f)
			}
			return nil
		}},
	"predict": {desc: "lower Predict annotations into speculative join/wait/rejoin/cancel barriers", effect: BarriersOnly,
		run: func(c *PassContext) error {
			for _, f := range c.Mod.Funcs {
				if err := c.applyPredictions(f); err != nil {
					return fmt.Errorf("func %q: %w", f.Name, err)
				}
			}
			return nil
		}},
	"deconflict": {desc: "resolve non-inclusive barrier live-range conflicts (arg: dynamic|static)", effect: BarriersOnly, bare: "dynamic",
		build: func(arg string) (func(c *PassContext) error, error) {
			mode := DeconflictDynamic
			switch arg {
			case "dynamic":
			case "static":
				mode = DeconflictStatic
			default:
				return nil, fmt.Errorf("unknown mode %q (want dynamic or static)", arg)
			}
			return func(c *PassContext) error {
				for _, fw := range c.specWaits {
					c.deconflict(fw.f, fw.waits, mode)
				}
				if n := c.Opts.Faults.SkipConflict; n > 0 && c.conflictSeen < n {
					return fmt.Errorf("fault skip-conflict@%d: %w such target: only %d conflicts found", n, ErrNoFaultTarget, c.conflictSeen)
				}
				return nil
			}, nil
		}},
	"inject": {desc: "deterministically perturb barrier placement per the fault plan (arg: fault spec, default Options.Faults)", effect: BarriersOnly,
		build: func(arg string) (func(c *PassContext) error, error) {
			if arg == "" {
				return func(c *PassContext) error { return c.inject(c.Opts.Faults) }, nil
			}
			plan, err := ParseFaultPlan(arg)
			return func(c *PassContext) error { return c.inject(plan) }, err
		}},
	"repair": {desc: "analysis-driven automated repair: apply the analyzer's machine edits to fixpoint before verification (arg: iteration budget)", effect: BarriersOnly,
		build: func(arg string) (func(c *PassContext) error, error) {
			iters := 0
			if arg != "" {
				var err error
				if iters, err = strconv.Atoi(arg); err != nil || iters < 1 {
					return nil, fmt.Errorf("bad iteration budget %q (want a positive integer)", arg)
				}
			}
			return func(c *PassContext) error { return c.repairToFixpoint(iters) }, nil
		}},
	"alloc":          {desc: "color virtual barriers onto the physical barrier registers", effect: BarriersOnly, run: (*PassContext).allocateBarriers},
	"barrier-safety": {desc: "verify barrier placement: pairing, releases on all exit paths, rejoin discipline, residual conflicts (read-only)", effect: ReadsOnly, run: (*PassContext).verifyBarrierSafety},
	"analyze": {desc: "full static analysis: barrier-state interpretation, diagnostics, SIMT-efficiency estimates (read-only; arg: low-efficiency note threshold)", effect: ReadsOnly,
		build: func(arg string) (func(c *PassContext) error, error) {
			thr := DefaultEffNoteBelow
			if arg != "" {
				var err error
				if thr, err = strconv.ParseFloat(arg, 64); err != nil || thr < 0 || thr > 1 {
					return nil, fmt.Errorf("bad threshold %q (want a float in [0, 1])", arg)
				}
			}
			return func(c *PassContext) error { return c.report(thr) }, nil
		}},
	"opt": {desc: "scalar optimization: constant folding and dead-code elimination to a fixed point",
		run: func(c *PassContext) error {
			if n := Optimize(c.Mod); n > 0 {
				c.Remarkf("", "", "%d instructions folded or eliminated", n)
			}
			return nil
		}},
	"simplify": {desc: "control-flow cleanup: merge straight-line blocks, skip empty blocks, drop unreachable ones",
		run: func(c *PassContext) error {
			for _, f := range c.Mod.Funcs {
				if n := Simplify(f); n > 0 {
					c.Remarkf(f.Name, "", "%d control-flow simplifications", n)
				}
			}
			return nil
		}},
	"autodetect": {desc: "annotate profitable reconvergence opportunities automatically (arg: min score, e.g. autodetect=1.5)",
		build: func(arg string) (func(c *PassContext) error, error) {
			opts := DefaultAutoDetectOptions()
			if arg != "" {
				var err error
				if opts.MinScore, err = strconv.ParseFloat(arg, 64); err != nil {
					return nil, fmt.Errorf("bad min score %q: %v", arg, err)
				}
			}
			return func(c *PassContext) error {
				for _, cand := range AutoAnnotate(c.Mod, opts) {
					c.Remarkf(cand.Fn.Name, cand.At.Name, "%s candidate: label %q, score %.2f", cand.Kind, cand.Label.Name, cand.Score())
				}
				return nil
			}, nil
		}},
	"unroll": {desc: "partially unroll a loop (arg: unroll=fn:header:factor)",
		build: func(arg string) (func(c *PassContext) error, error) {
			f, factor, err := argFields(arg, "fn:header:factor")
			return func(c *PassContext) error {
				copies, err := UnrollLoop(c.Mod, f[0], f[1], factor)
				if err != nil {
					return err
				}
				c.Remarkf(f[0], f[1], "unrolled by %d: body copies %s", factor, strings.Join(copies, ", "))
				return nil
			}, err
		}},
	"inline": {desc: "inline every call to a function (arg: inline=caller:callee)",
		build: func(arg string) (func(c *PassContext) error, error) {
			f, _, err := argFields(arg, "caller:callee")
			return func(c *PassContext) error {
				sites, dropped, err := Inline(c.Mod, f[0], f[1])
				if err != nil {
					return err
				}
				c.Remarkf(f[0], "", "inlined %d calls to %q, dropped %d interprocedural predictions", sites, f[1], dropped)
				return nil
			}, err
		}},
	"outline": {desc: "extract a block body into a new function (arg: outline=fn:block:newfn)",
		build: func(arg string) (func(c *PassContext) error, error) {
			f, _, err := argFields(arg, "fn:block:newfn")
			return func(c *PassContext) error {
				if err := Outline(c.Mod, f[0], f[1], f[2]); err != nil {
					return err
				}
				c.Remarkf(f[0], f[1], "outlined into new function %q", f[2])
				return nil
			}, err
		}},
	"coarsen": {desc: "thread coarsening: each thread runs N consecutive tasks (arg: coarsen=fn:factor)",
		build: func(arg string) (func(c *PassContext) error, error) {
			f, factor, err := argFields(arg, "fn:factor")
			return func(c *PassContext) error {
				if err := Coarsen(c.Mod, f[0], factor); err != nil {
					return err
				}
				c.Remarkf(f[0], "", "coarsened by factor %d", factor)
				return nil
			}, err
		}},
}

// argFields splits a pass argument into the colon-separated fields form
// names, and parses a last field named factor as an integer.
func argFields(arg, form string) (fields []string, factor int, err error) {
	fields = strings.Split(arg, ":")
	if len(fields) != strings.Count(form, ":")+1 {
		return nil, 0, fmt.Errorf("want %s, got %q", form, arg)
	}
	if !strings.HasSuffix(form, ":factor") {
		return fields, 0, nil
	}
	last := fields[len(fields)-1]
	if factor, err = strconv.Atoi(last); err != nil {
		return nil, 0, fmt.Errorf("bad factor %q: %v", last, err)
	}
	return fields, factor, nil
}

// pass is a built row of the table: a pipeline's element.
type pass struct {
	name   string
	spec   string // the pass as a spec string shows it: name[=arg]
	effect Effect
	run    func(c *PassContext) error
}

// newPass builds the named pass with its argument.
func newPass(name, arg string) (pass, error) {
	def, ok := passes[name]
	if !ok {
		return pass{}, fmt.Errorf("unknown pass %q (known: %s)", name, strings.Join(passNames(), ", "))
	}
	p := pass{name: name, spec: name, effect: def.effect, run: def.run}
	if arg = cmp.Or(arg, def.bare); arg != "" {
		p.spec += "=" + arg
	}
	if def.build == nil {
		if arg != "" {
			return pass{}, fmt.Errorf("pass %q takes no argument (got %q)", name, arg)
		}
		return p, nil
	}
	var err error
	if p.run, err = def.build(arg); err != nil {
		return pass{}, fmt.Errorf("pass %q: %w", name, err)
	}
	return p, nil
}

// PassInfo describes one pass of the table, as -list-passes prints it.
type PassInfo struct {
	Name        string
	Description string
	// Analysis marks read-only passes.
	Analysis bool
}

// RegisteredPasses lists the pass table, sorted by name.
func RegisteredPasses() []PassInfo {
	out := make([]PassInfo, 0, len(passes))
	for _, name := range passNames() {
		out = append(out, PassInfo{Name: name, Description: passes[name].desc, Analysis: passes[name].effect == ReadsOnly})
	}
	return out
}

// passNames lists the table's pass names, sorted.
func passNames() []string {
	names := make([]string, 0, len(passes))
	for n := range passes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Pipeline is an ordered list of built passes plus the manager's debug
// hooks. Built passes are immutable, and so are passes and spec once
// the pipeline is built: pipelines of one shape share them.
type Pipeline struct {
	passes []pass
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
		out[i] = ps.name
	}
	return out
}

// Spec renders the pipeline back to its spec string; ParsePipeline and
// Spec round-trip.
func (p *Pipeline) Spec() string { return p.spec }

// newPipeline returns the pipeline of the given passes.
func newPipeline(ps []pass) *Pipeline {
	specs := make([]string, len(ps))
	for i, p := range ps {
		specs[i] = p.spec
	}
	return &Pipeline{passes: ps, spec: strings.Join(specs, ",")}
}

// ParsePipeline parses a spec string like
// "pdom,predict,deconflict=dynamic,alloc" into a pipeline. Every element
// is a pass name of the table with an optional "=arg"; unknown and
// duplicate passes are errors.
func ParsePipeline(spec string) (*Pipeline, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("core: empty pipeline spec")
	}
	var ps []pass
	seen := map[string]bool{}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			return nil, fmt.Errorf("core: pipeline spec %q has an empty element", spec)
		}
		name, arg, _ := strings.Cut(item, "=")
		if seen[name] {
			return nil, fmt.Errorf("core: duplicate pass %q in pipeline %q", name, spec)
		}
		seen[name] = true
		p, err := newPass(name, arg)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		ps = append(ps, p)
	}
	return newPipeline(ps), nil
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
	pdom, predict, inject bool
	deconflict            DeconflictMode
	before                [2]string
}

// defaults memoizes the default pipeline of every shape asked for
// (shape -> *Pipeline).
var defaults sync.Map

// pipelineWith is PipelineFor with up to two named argument-free passes
// ("" for none) put in front of register allocation — the slot every
// verifying, repairing and reporting variant of the default pipeline
// uses, because there the barrier layout is final and still stated in
// virtual ids. The passes come straight from the table: no spec string
// is parsed. The pipeline is built once per shape and shared, so it is
// the caller's to run but not to set hooks on (own).
func pipelineWith(opts Options, before1, before2 string) *Pipeline {
	sh := shape{opts.InsertPDOM, opts.ApplyPredictions, opts.Faults.injectLayer(), opts.Deconflict, [2]string{before1, before2}}
	if p, ok := defaults.Load(sh); ok {
		return p.(*Pipeline)
	}
	var ps []pass
	add := func(name, arg string) {
		if name == "" {
			return
		}
		p, err := newPass(name, arg)
		if err != nil {
			// The table is fixed; default passes cannot fail.
			panic(fmt.Sprintf("core: default pipeline: %v", err))
		}
		ps = append(ps, p)
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
	add("alloc", "")
	p, _ := defaults.LoadOrStore(sh, newPipeline(ps))
	return p.(*Pipeline)
}

// run executes the pipeline over the context, instrumenting each pass.
func (p *Pipeline) run(c *PassContext) error {
	c.result.PassStats = make([]PassStat, 0, len(p.passes))
	// One pass's counts after are the next one's before.
	instrs, barOps := c.Mod.NumInstrs(), c.Mod.NumBarrierOps()
	for _, ps := range p.passes {
		name := ps.name
		instrsBefore, barOpsBefore := instrs, barOps
		mintedBefore := len(c.barriers)
		remarksBefore := len(c.result.Remarks)

		c.current = name
		start := time.Now()
		err := ps.run(c)
		wall := time.Since(start)
		c.current = ""
		if err != nil {
			return fmt.Errorf("pass %q: %w", name, err)
		}
		if e := ps.effect; e != BarriersOnly && e != ReadsOnly {
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
