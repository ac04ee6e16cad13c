package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"specrecon/internal/analyze"
	"specrecon/internal/ccache"
	"specrecon/internal/core"
	"specrecon/internal/corpus"
	"specrecon/internal/diffcheck"
	"specrecon/internal/harness"
	"specrecon/internal/ir"
	"specrecon/internal/obs"
	"specrecon/internal/simt"
	"specrecon/internal/workloads"
)

// The probes run at the end of every traced run, whatever its workload.
// Each times calls into one layer's public functions on inputs made from
// the run's seed, one span per call, and fills that layer's metrics, so
// every traced run reports every per-layer metric and a change in an
// end-to-end number can be followed down to the call that moved.

// probeApps is the size of the generated population the compile and
// diffcheck probes read.
const probeApps = 150

// probes is the state the probe functions share.
type probes struct {
	tr   *tracer
	seed uint64
	apps []*corpus.App
	// samples holds what each round of a probe measured, by metric.
	samples map[string][]float64
}

// runProbes runs every probe for a few rounds and records each metric's
// median over the rounds: most probed calls take microseconds, and one
// pass over them is at the mercy of a single collection. (A count is the
// same every round.) The cheap probes get more rounds, none more than
// maxRounds.
func runProbes(tr *tracer, seed uint64, maxRounds int, ms *metricSet) error {
	p := &probes{tr: tr, seed: seed, samples: map[string][]float64{}}
	for _, probe := range []struct {
		run    func() error
		rounds int
	}{
		{p.compile, 5}, {p.drivers, 3}, {p.opClasses, 3}, {p.sinks, 3}, {p.emptyLaunches, 5}, {p.diffcheck, 5}, {p.harness, 3},
	} {
		for round := 0; round < probe.rounds && round < maxRounds; round++ {
			runtime.GC() // start each round from the same heap state
			if err := probe.run(); err != nil {
				return err
			}
		}
	}
	for name, xs := range p.samples {
		ms.set(name, median(xs))
	}
	return nil
}

// sample records one round's value of a metric.
func (p *probes) sample(name string, v float64) {
	p.samples[name] = append(p.samples[name], v)
}

// time runs f under a span and returns how long it took.
func (p *probes) time(name string, f func()) time.Duration {
	id := p.tr.begin(name)
	f()
	return p.tr.end(id)
}

// timer accumulates the calls of one function.
type timer struct {
	total time.Duration
	calls int
}

func (t *timer) add(d time.Duration) { t.total += d; t.calls++ }

// per returns the mean time of a call in the given unit.
func (t *timer) per(unit time.Duration) float64 {
	if t.calls == 0 {
		return 0
	}
	return float64(t.total) / float64(t.calls) / float64(unit)
}

// compile times the front half of the repo — ir, corpus, workloads,
// core, analyze, ccache — over a generated population and the bundled
// suite.
func (p *probes) compile() error {
	d := p.time("corpus.Generate", func() { p.apps = corpus.Generate(probeApps, p.seed) })
	p.sample("corpus.generate_us", float64(d)/probeApps/1e3)

	var mods []*ir.Module
	for _, a := range p.apps {
		mods = append(mods, a.Module)
	}
	var build timer
	for _, w := range workloads.All() {
		var inst *workloads.Instance
		build.add(p.time("workloads.Build", func() { inst = w.Build(workloads.BuildConfig{Seed: p.seed}) }))
		mods = append(mods, inst.Module)
	}
	p.sample("workloads.build_ms", build.per(time.Millisecond))

	var printT, parse, clone, verify, annotate, base, spec, safe, diagnose, analyzeT timer
	passes := map[string]*timer{}
	addPasses := func(c *core.Compilation) {
		for _, s := range c.PassStats {
			name, _, _ := strings.Cut(s.Pass, "=")
			if passes[name] == nil {
				passes[name] = &timer{}
			}
			passes[name].add(s.Wall)
		}
	}
	var instrsOut, fallbacks, diagnostics int
	for _, m := range mods {
		var text string
		printT.add(p.time("ir.Print", func() { text = ir.Print(m) }))
		var err error
		parse.add(p.time("ir.Parse", func() { _, err = ir.Parse(text) }))
		if err != nil {
			return fmt.Errorf("parse %s: %w", m.Name, err)
		}
		var auto *ir.Module
		clone.add(p.time("ir.Clone", func() { auto = m.Clone() }))
		verify.add(p.time("ir.VerifyModule", func() { err = ir.VerifyModule(m) }))
		if err != nil {
			return fmt.Errorf("verify %s: %w", m.Name, err)
		}
		annotate.add(p.time("core.AutoAnnotate", func() { core.AutoAnnotate(auto, core.DefaultAutoDetectOptions()) }))

		var c *core.Compilation
		base.add(p.time("core.Compile.base", func() { c, err = core.Compile(m, core.BaselineOptions()) }))
		if err != nil {
			return fmt.Errorf("baseline compile %s: %w", m.Name, err)
		}
		addPasses(c)
		spec.add(p.time("core.Compile.spec", func() { c, err = core.Compile(auto, core.SpecReconOptions()) }))
		if err != nil {
			return fmt.Errorf("speculative compile %s: %w", m.Name, err)
		}
		addPasses(c)
		instrsOut += c.Stats.OutputInstrs
		compiled := c.Module
		var sc *core.SafeCompilation
		safe.add(p.time("core.CompileSafe", func() { sc, err = core.CompileSafe(auto, core.SpecReconOptions()) }))
		if err != nil {
			return fmt.Errorf("safe compile %s: %w", m.Name, err)
		}
		addPasses(sc.Compilation)
		if sc.FellBack {
			fallbacks++
		}
		diagnose.add(p.time("core.Diagnose", func() { c, err = core.Diagnose(auto, core.SpecReconOptions()) }))
		if err != nil {
			return fmt.Errorf("diagnose %s: %w", m.Name, err)
		}
		addPasses(c)
		var rep *analyze.Report
		analyzeT.add(p.time("analyze.Analyze", func() { rep = analyze.Analyze(compiled, analyze.Options{}) }))
		diagnostics += len(rep.Diags)
	}
	p.sample("ir.print_us", printT.per(time.Microsecond))
	p.sample("ir.parse_us", parse.per(time.Microsecond))
	p.sample("ir.clone_us", clone.per(time.Microsecond))
	p.sample("ir.verify_us", verify.per(time.Microsecond))
	p.sample("core.autoannotate_us", annotate.per(time.Microsecond))
	p.sample("core.compile_base_us", base.per(time.Microsecond))
	p.sample("core.compile_spec_us", spec.per(time.Microsecond))
	p.sample("core.compile_safe_us", safe.per(time.Microsecond))
	p.sample("core.diagnose_us", diagnose.per(time.Microsecond))
	for _, name := range []string{"pdom", "predict", "deconflict", "alloc", "barrier-safety", "analyze"} {
		t := passes[name]
		if t == nil {
			return fmt.Errorf("pass %s ran in no pipeline of the compile probe", name)
		}
		p.sample("core.pass_us."+name, t.per(time.Microsecond))
	}
	p.sample("core.instrs_out", float64(instrsOut))
	p.sample("core.fallbacks", float64(fallbacks))
	p.sample("analyze.analyze_us", analyzeT.per(time.Microsecond))
	p.sample("analyze.diagnostics", float64(diagnostics))

	cache := ccache.New(0)
	// The first pass over the set misses on every lookup, the second hits.
	for _, pass := range []string{"miss", "hit"} {
		var t timer
		for _, m := range mods {
			for _, o := range sweepVariants() {
				var err error
				t.add(p.time("ccache.Diagnose."+pass, func() { _, err = cache.Diagnose(m, o) }))
				if err != nil {
					return fmt.Errorf("cached diagnose %s: %w", m.Name, err)
				}
			}
		}
		p.sample("ccache."+pass+"_us", t.per(time.Microsecond))
	}
	st := cache.Stats()
	p.sample("ccache.hits", float64(st.Hits))
	p.sample("ccache.misses", float64(st.Misses))
	p.sample("ccache.bytes", float64(st.Bytes))
	return nil
}

// runNs launches m once on a fresh machine and returns the time of the
// issue loop alone (Machine.Run, not construction) with the result.
func (p *probes) runNs(m *ir.Module, cfg simt.Config) (float64, *simt.Result, error) {
	first := len(p.tr.spans)
	res, err := launch(p.tr, m, cfg)
	if err != nil {
		return 0, nil, err
	}
	run := p.tr.spans[first+1]
	return float64(run.end - run.start), res, nil
}

// drivers launches the driver-matrix kernel once under every launch
// driver.
func (p *probes) drivers() error {
	ds, err := buildDrivers(p.seed)
	if err != nil {
		return err
	}
	for _, dr := range ds {
		ns, res, err := p.runNs(dr.b.spec, dr.cfg)
		if err != nil {
			return fmt.Errorf("driver %s: %w", dr.name, err)
		}
		p.sample("simt.issue_ns."+dr.name, ns/float64(res.Metrics.Issues))
	}
	return nil
}

// opClasses launches the six micro-kernels.
func (p *probes) opClasses() error {
	for _, k := range microKernels() {
		cfg := simt.Config{Kernel: "kernel", Threads: microThreads, Seed: mix(p.seed, 4), Strict: true}
		ns, res, err := p.runNs(k.mod, cfg)
		if err != nil {
			return fmt.Errorf("micro-kernel %s: %w", k.name, err)
		}
		m := &res.Metrics
		if share := float64(m.OpClassIssues[k.class]) / float64(m.Issues); share < 0.8 {
			return fmt.Errorf("micro-kernel %s: only %.0f%% of its issues are %s", k.name, 100*share, k.class)
		}
		p.sample("simt.issue_ns."+k.name, ns/float64(m.Issues))
	}
	return nil
}

// sinks prices each observer by launching one small grid bare and then
// with one sink at a time, and scales the grid_launch kernel to 8 SMs.
func (p *probes) sinks() error {
	b, err := buildRSBench(observedShape)
	if err != nil {
		return err
	}
	cfg := observedConfig(b, p.seed)
	bare, _, err := p.runNs(b.spec, cfg)
	if err != nil {
		return err
	}
	over := func(metric string, edit func(*simt.Config)) error {
		c := cfg
		edit(&c)
		ns, _, err := p.runNs(b.spec, c)
		if err != nil {
			return fmt.Errorf("%s: %w", metric, err)
		}
		p.sample(metric, ns/bare)
		return nil
	}
	if err := over("simt.events_overhead_x", func(c *simt.Config) { c.Events = simt.SinkFunc(func(simt.Event) {}) }); err != nil {
		return err
	}
	profile, rec := obs.NewProfile(b.spec), obs.NewTraceRecorder()
	if err := over("obs.profile_overhead_x", func(c *simt.Config) { c.Events = profile }); err != nil {
		return err
	}
	if err := over("obs.trace_overhead_x", func(c *simt.Config) { c.Events = rec }); err != nil {
		return err
	}
	for _, stride := range []int64{1, 16, 256} {
		stride := stride
		err := over(fmt.Sprintf("obs.sampler_overhead_x.s%d", stride), func(c *simt.Config) {
			c.SampleStride = stride
			c.Samples = obs.NewOccupancyRecorder()
		})
		if err != nil {
			return err
		}
	}
	var traceJSON, profileJSON bytes.Buffer
	d := p.time("obs.WriteTrace", func() { err = rec.WriteTrace(&traceJSON) })
	if err != nil {
		return err
	}
	p.sample("obs.writetrace_s", d.Seconds())
	d = p.time("obs.Profile.WriteJSON", func() { err = profile.WriteJSON(&profileJSON) })
	if err != nil {
		return err
	}
	p.sample("obs.profile_write_s", d.Seconds())
	p.sample("obs.trace_bytes", float64(traceJSON.Len()))
	p.sample("obs.trace_events", float64(rec.Len()))

	b8, err := buildRSBench(workloads.BuildConfig{Grid: 16, CTASize: 64, SMs: 8})
	if err != nil {
		return err
	}
	ns, _, err := p.runNs(b8.spec, launchConfig(b8.inst, mix(p.seed, 1)))
	if err != nil {
		return err
	}
	p.sample("simt.run_s.sm8", ns/1e9)
	return nil
}

// emptyLaunches prices a launch that issues almost nothing — memory
// copy, SM fork and merge — fresh and through a reused Machine.
func (p *probes) emptyLaunches() error {
	const launches = 20
	mod := emptyKernel()
	mem := make([]uint64, emptyWords)
	for i := range mem {
		mem[i] = mix(p.seed, uint64(i))
	}
	for _, sms := range []int{1, 8} {
		cfg := simt.Config{Kernel: "kernel", Grid: 8, CTASize: ir.WarpWidth, SMs: sms, Workers: 1, Memory: mem, Strict: true}
		var fresh, reuse timer
		var err error
		for i := 0; i < launches && err == nil; i++ {
			fresh.add(p.time("simt.Run.empty", func() { _, err = simt.Run(mod, cfg) }))
		}
		if err != nil {
			return err
		}
		mc, err := simt.NewMachine(mod, cfg)
		if err != nil {
			return err
		}
		for i := 0; i < launches && err == nil; i++ {
			reuse.add(p.time("simt.Machine.Run.empty", func() { _, err = mc.Run(cfg) }))
		}
		if err != nil {
			return err
		}
		p.sample(fmt.Sprintf("simt.launch_us.empty_sm%d", sms), fresh.per(time.Microsecond))
		p.sample(fmt.Sprintf("simt.relaunch_us.empty_sm%d", sms), reuse.per(time.Microsecond))
	}
	return nil
}

// diffcheck checks the probe population the way the campaign does.
func (p *probes) diffcheck() error {
	var check, compare timer
	findings := 0
	for _, a := range p.apps {
		k := diffcheck.Kernel{Name: a.Name, Module: a.Module, Entry: a.Kernel, Threads: a.Threads, Memory: a.Memory, Seed: a.Seed}
		var res diffcheck.Result
		check.add(p.time("diffcheck.Check", func() { res = diffcheck.Check(k, diffcheck.Options{AutoAnnotate: true, Verify: true}) }))
		if !res.OK {
			findings++
		}
		image := append([]uint64(nil), a.Memory...)
		var err error
		compare.add(p.time("diffcheck.SameMemory", func() { err = diffcheck.SameMemory(a.Memory, image) }))
		if err != nil {
			return err
		}
	}
	p.sample("diffcheck.check_us", check.per(time.Microsecond))
	p.sample("diffcheck.compare_us", compare.per(time.Microsecond))
	p.sample("diffcheck.findings", float64(findings))
	return nil
}

// harness times the four experiment drivers and replays Figure 7 through
// the layers to find what the harness itself adds.
func (p *probes) harness() error {
	cfg := workloads.BuildConfig{Seed: p.seed}
	var err error
	f7 := p.time("harness.Figure7", func() { _, err = harness.Figure7(cfg, 1) })
	if err != nil {
		return err
	}
	id := p.tr.begin("bench.replay")
	layerNs, _, err := replayFigure7(p.tr, cfg)
	p.tr.end(id)
	if err != nil {
		return err
	}
	p.sample("harness.figure7_s", f7.Seconds())
	p.sample("harness.glue_frac", 1-float64(layerNs)/float64(f7))
	d := p.time("harness.Figure9", func() { _, err = harness.Figure9("pathtracer", cfg, figure9Thresholds, 1) })
	if err != nil {
		return err
	}
	p.sample("harness.figure9_s", d.Seconds())
	d = p.time("harness.Figure10", func() { _, err = harness.Figure10(cfg, 1) })
	if err != nil {
		return err
	}
	p.sample("harness.figure10_s", d.Seconds())
	d = p.time("harness.RunFunnel", func() { _, err = harness.RunFunnel(funnelApps, funnelSeed, 1) })
	if err != nil {
		return err
	}
	p.sample("harness.funnel_s", d.Seconds())
	return nil
}
