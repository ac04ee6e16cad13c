package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

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

// opResult is what one op hands back to the runner.
type opResult struct {
	// digest names the statistics the op produced; every op of a run
	// must produce the first op's.
	digest string
	// sim sums the op's simulated statistics (zero where the workload's
	// public API hides them or nothing is simulated).
	sim simTotals
	// check, when non-nil, verifies outputs too costly to verify inside
	// the timed op. The runner calls it with the clock stopped.
	check func() error
	// keep holds what the op leaves behind (arena, cache, recorders) so
	// heap_live_mb counts it.
	keep any
}

// instance is one workload set up for one seed.
type instance struct {
	// op runs one op. With a nil tracer it is what a user of the repo
	// runs; with a tracer it pushes the same inputs through the layers'
	// public functions, one span per call.
	op func(tr *tracer) (*opResult, error)
	// replay, when non-nil, repeats the part of the op whose layer calls
	// op's public entry point hides, outside the traced op's own time.
	replay func(tr *tracer) (simTotals, error)
}

// workload is one row of BENCHMARK.json's "workloads".
type workload struct {
	name  string
	setup func(seed uint64) (*instance, error)
}

var allWorkloads = []workload{
	{"figures_all", setupFigures},
	{"grid_launch", setupGridLaunch},
	{"campaign", setupCampaign},
	{"sweep", setupSweep},
	{"observed_grid", setupObservedGrid},
	{"driver_matrix", setupDriverMatrix},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// populationSeed pins the generated kernel population of the simulating
// workloads. A population drawn from the run's seed changes which few
// heavy kernels it holds, and with them an op's work by ±15%; the run's
// seed therefore reaches those workloads through the launch seeds (the
// lanes' random streams, hence every trip count and address), which
// moves each exact count but keeps the work within a few percent.
const populationSeed = 42

// mix derives an independent seed from the run's seed (splitmix64).
func mix(seed, salt uint64) uint64 {
	z := seed + salt*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// launch is one fresh launch. Traced, it splits simt.Run into its two
// public halves so construction and the issue loop get a span each.
func launch(tr *tracer, m *ir.Module, cfg simt.Config) (*simt.Result, error) {
	if tr == nil {
		return simt.Run(m, cfg)
	}
	id := tr.begin("simt.NewMachine")
	mc, err := simt.NewMachine(m, cfg)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("simt.Machine.Run")
	res, err := mc.Run(cfg)
	tr.end(id)
	return res, err
}

// launchConfig maps an instance's launch shape onto the simulator, as
// the harness does.
func launchConfig(inst *workloads.Instance, seed uint64) simt.Config {
	return simt.Config{
		Kernel: inst.Kernel, Threads: inst.Threads, Seed: seed, Memory: inst.Memory, Strict: true,
		Grid: inst.Grid, CTASize: inst.CTASize, SMs: inst.SMs, Workers: inst.Workers,
		Policy: inst.Policy, Sched: inst.Sched, SchedSeed: inst.SchedSeed,
	}
}

// rsbenchBuild is the RSBench instance at one launch shape with its
// speculative build (the code under test) and its PDOM baseline (the
// oracle's build).
type rsbenchBuild struct {
	inst       *workloads.Instance
	spec, base *ir.Module
}

func buildRSBench(cfg workloads.BuildConfig) (*rsbenchBuild, error) {
	w, err := workloads.Get("rsbench")
	if err != nil {
		return nil, err
	}
	cfg.Workers = 1
	inst := w.Build(cfg)
	spec, err := core.Compile(inst.Module, core.SpecReconOptions())
	if err != nil {
		return nil, fmt.Errorf("rsbench spec build: %w", err)
	}
	base, err := core.Compile(inst.Module, core.BaselineOptions())
	if err != nil {
		return nil, fmt.Errorf("rsbench baseline build: %w", err)
	}
	return &rsbenchBuild{inst: inst, spec: spec.Module, base: base.Module}, nil
}

// oracle runs the PDOM baseline once and returns a copy of its final
// memory: the expected output of every launch of the speculative build
// at the same seed, from a build the op never runs.
func (b *rsbenchBuild) oracle(seed uint64) ([]uint64, error) {
	res, err := simt.Run(b.base, launchConfig(b.inst, seed))
	if err != nil {
		return nil, fmt.Errorf("rsbench baseline run: %w", err)
	}
	return append([]uint64(nil), res.Memory...), nil
}

// figure9Thresholds are the points `figures -fig 9` sweeps.
var figure9Thresholds = []int{1, 4, 8, 12, 16, 20, 24, 28, 30, 32}

// funnelApps and funnelSeed are what `figures -fig all` passes to the
// section 5.4 funnel; the command pins the seed, so the op does.
const (
	funnelApps = 520
	funnelSeed = 42
)

// minEffGain is the least geometric-mean SIMT-efficiency gain over the
// annotated suite an op may report: the paper's "significant increases".
const minEffGain = 1.3

func setupFigures(seed uint64) (*instance, error) {
	cfg := workloads.BuildConfig{Seed: seed}
	op := func(tr *tracer) (*opResult, error) {
		d := newDigest()
		id := tr.begin("harness.Figure7")
		f7, err := harness.Figure7(cfg, 1)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("harness.Figure8")
		f8, err := harness.Figure8(cfg, 1)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		logGain := 0.0
		for _, rows := range [][]harness.Comparison{f7, f8} {
			for _, c := range rows {
				d.add(c.Name, c.BaseEff, c.SpecEff, c.BaseCycles, c.SpecCycles, c.BaseIssues, c.SpecIssues, c.FellBack)
			}
		}
		for _, c := range f7 {
			logGain += math.Log(c.EffImprovement())
		}
		if gain := math.Exp(logGain / float64(len(f7))); len(f7) != 8 || !(gain >= minEffGain) {
			return nil, fmt.Errorf("figure 7: %d rows, geometric-mean efficiency gain %.3f, want 8 rows and >= %.1f", len(f7), gain, minEffGain)
		}
		for _, name := range []string{"pathtracer", "xsbench"} {
			id = tr.begin("harness.Figure9")
			pts, err := harness.Figure9(name, cfg, figure9Thresholds, 1)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			for _, p := range pts {
				d.add(p.Threshold, p.Eff, p.Cycles)
			}
		}
		id = tr.begin("harness.Figure10")
		f10, err := harness.Figure10(cfg, 1)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		for _, c := range f10 {
			d.add(c.Name, c.BaseEff, c.SpecEff, c.BaseCycles, c.SpecCycles)
		}
		id = tr.begin("harness.RunFunnel")
		fr, err := harness.RunFunnel(funnelApps, funnelSeed, 1)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if fr.Studied != funnelApps {
			return nil, fmt.Errorf("funnel studied %d applications, want %d", fr.Studied, funnelApps)
		}
		d.add(fr.Studied, fr.LowEff, fr.Detected, fr.Significant, fr.Regressed, fr.Fallbacks, fr.Repaired)
		return &opResult{digest: d.String()}, nil
	}
	replay := func(tr *tracer) (simTotals, error) {
		_, sim, err := replayFigure7(tr, cfg)
		return sim, err
	}
	return &instance{op: op, replay: replay}, nil
}

// replayFigure7 does what harness.Figure7 does for each annotated
// workload through the layers' public functions, and returns the time
// those calls took and the simulated statistics the harness rows hide.
func replayFigure7(tr *tracer, cfg workloads.BuildConfig) (layerNs int64, sim simTotals, err error) {
	timed := func(name string, f func() error) error {
		id := tr.begin(name)
		err := f()
		layerNs += int64(tr.end(id))
		return err
	}
	for _, w := range workloads.Annotated() {
		var inst *workloads.Instance
		_ = timed("workloads.Build", func() error { inst = w.Build(cfg); return nil })
		var base *core.Compilation
		var spec *core.SafeCompilation
		if err = timed("core.Compile", func() (err error) { base, err = core.Compile(inst.Module, core.BaselineOptions()); return }); err != nil {
			return
		}
		if err = timed("core.CompileSafe", func() (err error) { spec, err = core.CompileSafe(inst.Module, core.SpecReconOptions()); return }); err != nil {
			return
		}
		var mems [2][]uint64
		for i, m := range []*ir.Module{base.Module, spec.Module} {
			var res *simt.Result
			if err = timed("simt.Run", func() (err error) { res, err = launch(tr, m, launchConfig(inst, inst.Seed)); return }); err != nil {
				return
			}
			sim.add(&res.Metrics)
			mems[i] = res.Memory
		}
		if err = timed("diffcheck.SameMemory", func() error { return diffcheck.SameMemory(mems[0], mems[1]) }); err != nil {
			return
		}
	}
	return
}

func setupGridLaunch(seed uint64) (*instance, error) {
	b, err := buildRSBench(workloads.BuildConfig{Grid: 16, CTASize: 64, SMs: 1})
	if err != nil {
		return nil, err
	}
	launchSeed := mix(seed, 1)
	want, err := b.oracle(launchSeed)
	if err != nil {
		return nil, err
	}
	cfg := launchConfig(b.inst, launchSeed)
	op := func(tr *tracer) (*opResult, error) {
		res, err := launch(tr, b.spec, cfg)
		if err != nil {
			return nil, err
		}
		id := tr.begin("diffcheck.SameMemory")
		err = diffcheck.SameMemory(want, res.Memory)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		r := &opResult{keep: res}
		r.sim.add(&res.Metrics)
		d := newDigest()
		d.add(r.sim)
		r.digest = d.String()
		return r, nil
	}
	return &instance{op: op}, nil
}

// campaignApps is the size of the differential-checking campaign.
const campaignApps = 500

func setupCampaign(seed uint64) (*instance, error) {
	apps := corpus.Generate(campaignApps, populationSeed)
	kernels := make([]diffcheck.Kernel, len(apps))
	for i, a := range apps {
		kernels[i] = diffcheck.Kernel{
			Name: a.Name, Module: a.Module, Entry: a.Kernel,
			Threads: a.Threads, Memory: a.Memory, Seed: mix(seed, a.Seed),
		}
	}
	opts := diffcheck.Options{AutoAnnotate: true, Verify: true}
	op := func(tr *tracer) (*opResult, error) {
		r := &opResult{}
		for _, k := range kernels {
			if tr == nil {
				res := diffcheck.Check(k, opts)
				if !res.OK {
					return nil, fmt.Errorf("campaign finding on %s: %s", k.Name, res)
				}
				r.sim.add(&res.BaseMetrics)
				r.sim.add(&res.SpecMetrics)
			} else if err := replayCheck(tr, k, &r.sim); err != nil {
				return nil, fmt.Errorf("campaign finding on %s: %w", k.Name, err)
			}
		}
		d := newDigest()
		d.add(r.sim)
		r.digest = d.String()
		return r, nil
	}
	return &instance{op: op}, nil
}

// replayCheck is diffcheck.Check(k, {AutoAnnotate, Verify}) through the
// layers' public functions. Its statistics must equal Check's, which the
// shared digest verifies on every traced op.
func replayCheck(tr *tracer, k diffcheck.Kernel, sim *simTotals) error {
	mod := k.Module
	annotated := false
	for _, f := range mod.Funcs {
		annotated = annotated || len(f.Predictions) > 0
	}
	if !annotated {
		id := tr.begin("ir.Clone")
		clone := mod.Clone()
		tr.end(id)
		id = tr.begin("core.AutoAnnotate")
		applied := core.AutoAnnotate(clone, core.DefaultAutoDetectOptions())
		tr.end(id)
		if len(applied) > 0 {
			mod = clone
		}
	}
	id := tr.begin("core.Compile")
	base, err := core.Compile(mod, core.BaselineOptions())
	tr.end(id)
	if err != nil {
		return err
	}
	specOpts := core.Options{InsertPDOM: true, ApplyPredictions: true, ThresholdOverride: -1}
	id = tr.begin("core.CompilePipeline")
	spec, err := core.CompilePipeline(mod, specOpts, core.SafePipelineFor(specOpts))
	tr.end(id)
	if err != nil {
		return err
	}
	cfg := simt.Config{
		Kernel: k.Entry, Threads: k.Threads, Seed: k.Seed, Memory: k.Memory,
		Strict: true, MaxIssues: 1 << 24,
	}
	var res [2]*simt.Result
	for i, m := range []*ir.Module{base.Module, spec.Module} {
		if res[i], err = launch(tr, m, cfg); err != nil {
			return err
		}
		sim.add(&res[i].Metrics)
	}
	id = tr.begin("diffcheck.SameMemory")
	err = diffcheck.SameMemory(res[0].Memory, res[1].Memory)
	if err == nil {
		err = diffcheck.SameShared(res[0].Shared, res[1].Shared)
	}
	tr.end(id)
	return err
}

const (
	// sweepApps generated applications join the bundled workloads in the
	// compile-only sweep; sweepHitPasses warm passes follow the cold one,
	// which makes the miss and hit halves of an op about equal.
	sweepApps      = 1000
	sweepHitPasses = 10
)

// sweepVariants are the three builds a threshold study asks of each
// module.
func sweepVariants() []core.Options {
	at := func(t int) core.Options {
		o := core.SpecReconOptions()
		o.ThresholdOverride = t
		return o
	}
	return []core.Options{core.BaselineOptions(), at(8), at(24)}
}

// sameMix draws n generated applications from the seed with exactly the
// mix of kinds the pinned population has. The generator draws each
// application's kind at random, and the few divergent kinds cost several
// times the others to compile, so an unconstrained draw moves a sweep's
// allocations by ±2% from seed to seed; with the mix held, what the seed
// changes is every application's shape, not how many there are of each.
func sameMix(n int, seed uint64) ([]*corpus.App, error) {
	quota := map[corpus.Kind]int{}
	for _, a := range corpus.Generate(n, populationSeed) {
		quota[a.Kind]++
	}
	apps := make([]*corpus.App, 0, n)
	for _, a := range corpus.Generate(2*n, seed) {
		if quota[a.Kind] > 0 {
			quota[a.Kind]--
			apps = append(apps, a)
		}
	}
	if len(apps) != n {
		return nil, fmt.Errorf("seed %d: only %d of %d applications fit the population's mix of kinds", seed, len(apps), n)
	}
	return apps, nil
}

// sweepSet is the text of every module the compile-only workload reads:
// n generated applications and the bundled suite.
func sweepSet(n int, seed uint64) ([]string, error) {
	apps, err := sameMix(n, seed)
	if err != nil {
		return nil, err
	}
	var texts []string
	for _, a := range apps {
		texts = append(texts, ir.Print(a.Module))
	}
	for _, w := range workloads.All() {
		texts = append(texts, ir.Print(w.Build(workloads.BuildConfig{Seed: seed}).Module))
	}
	return texts, nil
}

func setupSweep(seed uint64) (*instance, error) {
	texts, err := sweepSet(sweepApps, seed)
	if err != nil {
		return nil, err
	}
	variants := sweepVariants()
	op := func(tr *tracer) (*opResult, error) {
		cache := ccache.New(0)
		mods := make([]*ir.Module, len(texts))
		for i, src := range texts {
			id := tr.begin("ir.Parse")
			m, err := ir.Parse(src)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			mods[i] = m
		}
		d := newDigest()
		cold := make([]*core.Compilation, 0, len(mods)*len(variants))
		for _, m := range mods {
			for _, o := range variants {
				id := tr.begin("ccache.Diagnose.miss")
				c, err := cache.Diagnose(m, o)
				tr.end(id)
				if err != nil {
					return nil, err
				}
				d.add(c.Stats.OutputInstrs, len(c.Diagnostics))
				cold = append(cold, c)
			}
		}
		for pass := 0; pass < sweepHitPasses; pass++ {
			id := tr.begin("ccache.Diagnose.hit")
			i := 0
			for _, m := range mods {
				for _, o := range variants {
					c, err := cache.Diagnose(m, o)
					if err != nil {
						return nil, err
					}
					if c != cold[i] {
						return nil, fmt.Errorf("sweep: warm lookup %d returned a different compilation than the cold one", i)
					}
					i++
				}
			}
			tr.end(id)
		}
		n := int64(len(cold))
		if st := cache.Stats(); st.Misses != n || st.Hits != sweepHitPasses*n {
			return nil, fmt.Errorf("sweep: cache saw %d misses and %d hits, want %d and %d", st.Misses, st.Hits, n, sweepHitPasses*n)
		}
		return &opResult{digest: d.String(), keep: cache}, nil
	}
	return &instance{op: op}, nil
}

// observedStride is the occupancy sampler's stride on observed_grid.
const observedStride = 16

// observed is one launch with every observer attached.
type observed struct {
	res     *simt.Result
	profile *obs.Profile
	trace   *obs.TraceRecorder
	occ     *obs.OccupancyRecorder
	// traceJSON and profileJSON are what WriteTrace and WriteJSON wrote.
	traceJSON, profileJSON bytes.Buffer
}

// observedShape is the small grid every sink is priced on.
var observedShape = workloads.BuildConfig{Grid: 4, CTASize: 64, SMs: 2}

// observedConfig is the launch the sinks observe. What a sink costs is
// proportional to the events it is sent, and a launch this small issues
// ±7% more or fewer instructions from one launch seed to the next, so
// here the run's seed picks the warp interleaving instead (the seeded
// random scheduler): every warp issues the same instructions whatever
// the seed, while cycles, cache hits and the order of events move.
func observedConfig(b *rsbenchBuild, seed uint64) simt.Config {
	cfg := launchConfig(b.inst, b.inst.Seed)
	cfg.Sched = simt.SchedRandom
	cfg.SchedSeed = seed
	return cfg
}

func setupObservedGrid(seed uint64) (*instance, error) {
	b, err := buildRSBench(observedShape)
	if err != nil {
		return nil, err
	}
	want, err := b.oracle(b.inst.Seed)
	if err != nil {
		return nil, err
	}
	traceEvents := -1
	op := func(tr *tracer) (*opResult, error) {
		o := &observed{profile: obs.NewProfile(b.spec), trace: obs.NewTraceRecorder(), occ: obs.NewOccupancyRecorder()}
		cfg := observedConfig(b, seed)
		cfg.Events = simt.TeeSinks(o.profile, o.trace)
		cfg.SampleStride = observedStride
		cfg.Samples = o.occ
		var err error
		if o.res, err = launch(tr, b.spec, cfg); err != nil {
			return nil, err
		}
		id := tr.begin("obs.WriteTrace")
		err = o.trace.WriteTrace(&o.traceJSON)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("obs.Profile.WriteJSON")
		err = o.profile.WriteJSON(&o.profileJSON)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		r := &opResult{keep: o}
		r.sim.add(&o.res.Metrics)
		d := newDigest()
		d.add(r.sim)
		d.add(o.trace.Len(), o.occ.Len(), o.traceJSON.Len(), o.profileJSON.Len())
		r.digest = d.String()
		r.check = func() error {
			if err := diffcheck.SameMemory(want, o.res.Memory); err != nil {
				return err
			}
			if got, want := o.profile.Issues(), o.res.Metrics.Issues; got != want {
				return fmt.Errorf("profile counted %d issues, the launch %d", got, want)
			}
			if int64(o.trace.Len()) < o.res.Metrics.Issues {
				return fmt.Errorf("trace recorded %d events for %d issues", o.trace.Len(), o.res.Metrics.Issues)
			}
			var file struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(o.traceJSON.Bytes(), &file); err != nil {
				return fmt.Errorf("trace JSON: %w", err)
			}
			if traceEvents < 0 {
				traceEvents = len(file.TraceEvents)
			}
			if len(file.TraceEvents) == 0 || len(file.TraceEvents) != traceEvents {
				return fmt.Errorf("trace JSON holds %d events, the first op's held %d", len(file.TraceEvents), traceEvents)
			}
			return nil
		}
		return r, nil
	}
	return &instance{op: op}, nil
}

// driver is one way to launch the 512-thread RSBench build.
type driver struct {
	name string // the suffix of its simt.issue_ns.<name> metric
	b    *rsbenchBuild
	cfg  simt.Config
	// inMatrix is false for the two default drivers, which figures_all
	// and grid_launch already exercise.
	inMatrix bool
}

// driverThreads is the launch size of the driver matrix.
const driverThreads = 512

// buildDrivers returns every launch driver of internal/simt over one
// RSBench build: the three flat ones and the grid under each scheduling
// policy.
func buildDrivers(seed uint64) ([]driver, error) {
	flat, err := buildRSBench(workloads.BuildConfig{Threads: driverThreads})
	if err != nil {
		return nil, err
	}
	grid, err := buildRSBench(workloads.BuildConfig{Grid: driverThreads / 64, CTASize: 64, SMs: 1})
	if err != nil {
		return nil, err
	}
	launchSeed := mix(seed, 3)
	with := func(b *rsbenchBuild, edit func(*simt.Config)) simt.Config {
		cfg := launchConfig(b.inst, launchSeed)
		edit(&cfg)
		return cfg
	}
	ds := []driver{
		{"flat", flat, with(flat, func(*simt.Config) {}), false},
		{"interleave", flat, with(flat, func(c *simt.Config) { c.InterleaveWarps = true }), true},
		// The stack engine has no barriers to leave participation in.
		{"stack", flat, with(flat, func(c *simt.Config) { c.Model = simt.ModelStack; c.Strict = false }), true},
		{"grid_greedy", grid, with(grid, func(*simt.Config) {}), false},
	}
	for _, p := range []simt.SchedPolicy{simt.SchedOldestFirst, simt.SchedYoungestFirst, simt.SchedLooseFair, simt.SchedRandom} {
		p := p
		ds = append(ds, driver{"grid_" + p.String(), grid, with(grid, func(c *simt.Config) { c.Sched = p; c.SchedSeed = seed }), true})
	}
	return ds, nil
}

func setupDriverMatrix(seed uint64) (*instance, error) {
	ds, err := buildDrivers(seed)
	if err != nil {
		return nil, err
	}
	var want []uint64
	for _, dr := range ds {
		if dr.name == "grid_greedy" {
			res, err := simt.Run(dr.b.spec, dr.cfg)
			if err != nil {
				return nil, err
			}
			want = append([]uint64(nil), res.Memory...)
		}
	}
	op := func(tr *tracer) (*opResult, error) {
		r := &opResult{}
		d := newDigest()
		for _, dr := range ds {
			if !dr.inMatrix {
				continue
			}
			res, err := launch(tr, dr.b.spec, dr.cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", dr.name, err)
			}
			id := tr.begin("diffcheck.SameMemory")
			err = diffcheck.SameMemory(want, res.Memory)
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s against the greedy grid: %w", dr.name, err)
			}
			r.sim.add(&res.Metrics)
			d.add(dr.name, res.Metrics.Issues, res.Metrics.Cycles)
			r.keep = res
		}
		d.add(r.sim)
		r.digest = d.String()
		return r, nil
	}
	return &instance{op: op}, nil
}
