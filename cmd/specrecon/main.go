// Command specrecon compiles and runs one kernel on the SIMT simulator,
// reporting SIMT efficiency and timing for the baseline and
// speculative-reconvergence builds.
//
// The kernel is either a bundled benchmark name (see -list) or a path to
// a .sasm file in the textual IR format (ir.Parse); annotations travel in
// .predict directives.
//
// Examples:
//
//	specrecon -kernel rsbench
//	specrecon -kernel rsbench -mode spec -threshold 24 -print
//	specrecon -kernel mykernel.sasm -mode auto
//	specrecon -kernel pathtracer -mode spec -profile -trace-out pt.trace.json
//
// Exit status: 0 the runs completed (with -diffcheck: the builds agree);
// 1 a compile or a run failed, or -diffcheck has a finding; 2 a flag, a
// flag value or a kernel it cannot use.
package main

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"specrecon/internal/analyze"
	"specrecon/internal/cli"
	"specrecon/internal/core"
	"specrecon/internal/diffcheck"
	"specrecon/internal/harness"
	"specrecon/internal/ir"
	"specrecon/internal/obs"
	"specrecon/internal/simt"
	"specrecon/internal/workloads"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) (code int) {
	app := cli.New("specrecon", stdout, stderr)
	var (
		kernel     = app.String("kernel", "", "workload name or .sasm file")
		mode       = app.String("mode", "both", "baseline | spec | auto | both")
		threshold  = app.Int("threshold", -1, "override soft-barrier threshold (0=hard, 1..32=soft, -1=per-annotation)")
		deconf     = app.String("deconflict", "dynamic", "dynamic | static | none")
		model      = app.String("model", "its", "divergence model: its (Volta convergence barriers) | stack (pre-Volta reconvergence stack)")
		interleave = app.Bool("interleave", false, "interleave a flat launch's warps issue-by-issue as one wave")
		printIR    = app.Bool("print", false, "print the compiled IR")
		dot        = app.Bool("dot", false, "print the compiled kernel's CFG in Graphviz dot syntax")
		lint       = app.Bool("lint", false, "run static diagnostics on the input module (warnings and errors only; see -diagnostics)")
		diagFlag   = app.Bool("diagnostics", false, "run the full static analyzer on the input module: coded diagnostics (SRxxxx), severities and static SIMT-efficiency estimates")
		sweep      = app.Bool("sweep", false, "sweep the soft-barrier threshold 1..32 and report eff/speedup")
		list       = app.Bool("list", false, "list bundled workloads")

		diffFlag = app.Bool("diffcheck", false, "differentially check the kernel (baseline vs speculative) and exit; honors `; repro-*` directives in .sasm files")
		inject   = app.String("inject", "", "inject faults into the speculative build/run (e.g. \"drop-cancel@1+skip-release@2\"; see diffcheck.ParseFault)")
		safe     = app.Bool("safe", false, "compile non-baseline modes through the fail-safe pipeline (verifier + PDOM fallback); not with -passes, -verify-each or -dump-ir-after")

		passes     = app.String("passes", "", "override the pass pipeline with a spec string (e.g. \"pdom,predict,deconflict=dynamic,alloc\")")
		dumpAfter  = app.String("dump-ir-after", "", "print the IR after the named pass")
		passStats  = app.Bool("print-pass-stats", false, "print per-pass wall time, instruction deltas and barrier counts")
		verifyEach = app.Bool("verify-each", false, "verify the module after every pass, attributing breakage to the pass")
		remarks    = app.Bool("remarks", false, "print the optimization remarks stream")
		listPasses = app.Bool("list-passes", false, "list registered compiler passes")

		profile     = app.Bool("profile", false, "print the nvprof-style per-PC profile after each run")
		profileTop  = app.Int("profile-top", 10, "rows in the -profile hot-spot table")
		profileJSON = app.String("profile-json", "", "write the machine-readable profile dump to this file")
		traceOut    = app.String("trace-out", "", "write a Chrome trace-event JSON (open in ui.perfetto.dev) to this file")

		sampleStride = app.Int64("sample-stride", 0, "sample per-SM occupancy/stall attribution every N modeled cycles (0 = off); prints the occupancy report per run and feeds counter tracks into -trace-out")
	)
	app.IntVar(&app.Launch.Tasks, "tasks", 0, "tasks per thread (0 = workload default)")
	app.LaunchFlags()
	app.SchedFlags()
	app.LivenessFlags()
	app.CacheFlags()
	app.ProfileFlags()
	app.TelemetryJSONFlag()
	if code, done := app.Parse(args); done {
		return code
	}
	defer app.Close(&code)
	usage := func(err error) int { return app.Fail(cli.Usage, err) }
	fail := func(err error) int { return app.Fail(cli.Fail, err) }

	if *list {
		for _, w := range workloads.All() {
			fmt.Fprintf(stdout, "%-14s %-16s %s\n", w.Name, w.Pattern, w.Description)
		}
		return cli.OK
	}
	if *listPasses {
		for _, info := range core.RegisteredPasses() {
			kind := "transform"
			if info.Analysis {
				kind = "analysis"
			}
			fmt.Fprintf(stdout, "%-11s %-9s %s\n", info.Name, kind, info.Description)
		}
		return cli.OK
	}
	if *kernel == "" {
		return usage(errors.New("-kernel is required (try -list)"))
	}
	if *safe && (*passes != "" || *verifyEach || *dumpAfter != "") {
		return usage(errors.New("-safe compiles through its own fail-safe pipeline and cannot be combined with -passes, -verify-each or -dump-ir-after"))
	}
	if *profileTop < 0 {
		return usage(fmt.Errorf("-profile-top %d: the row count cannot be negative", *profileTop))
	}
	if *threshold < -1 || *threshold > ir.WarpWidth {
		return usage(fmt.Errorf("-threshold %d: want -1 (each annotation's own), 0 (hard) or 1..%d", *threshold, ir.WarpWidth))
	}
	if *sampleStride < 0 {
		return usage(fmt.Errorf("-sample-stride %d: the stride cannot be negative", *sampleStride))
	}
	if *interleave && app.Launch.Grid > 0 {
		return usage(errors.New("-interleave makes a flat launch one wave and cannot be combined with -grid: an SM always interleaves its resident warps"))
	}
	inst, err := loadInstance(*kernel, app.Launch)
	if err != nil {
		return usage(err)
	}

	if *lint || *diagFlag {
		// Both paths run the static analyzer as a read-only pass over a
		// single-pass pipeline; -lint keeps the historical
		// warnings-and-above view, -diagnostics shows the full coded
		// report plus static efficiency estimates.
		dpipe, err := core.ParsePipeline("analyze")
		if err != nil {
			return fail(err)
		}
		dcomp, err := app.Cache.CompilePipeline(inst.Module, core.Options{SkipAllocation: true}, dpipe)
		if err != nil {
			return fail(err)
		}
		diags := dcomp.Diagnostics
		if !*diagFlag {
			diags = analyze.Filter(diags, analyze.SeverityWarning)
		}
		if len(diags) == 0 {
			fmt.Fprintln(stdout, "diagnostics: clean")
		}
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s: %s\n", d.Severity, d)
		}
		if *diagFlag {
			kernels := make([]string, 0, len(dcomp.StaticEff))
			for name := range dcomp.StaticEff {
				kernels = append(kernels, name)
			}
			sort.Strings(kernels)
			for _, name := range kernels {
				fmt.Fprintf(stdout, "static-eff %s: %.1f%%\n", name, dcomp.StaticEff[name]*100)
			}
		}
	}

	dec, err := parseNamed("deconfliction mode", *deconf, core.DeconflictDynamic, core.DeconflictStatic, core.DeconflictNone)
	if err != nil {
		return usage(err)
	}
	eng, err := parseNamed("model", *model, simt.ModelITS, simt.ModelStack)
	if err != nil {
		return usage(err)
	}
	faultPlan, skipRelease, err := diffcheck.ParseFault(*inject)
	if err != nil {
		return usage(err)
	}

	if *diffFlag {
		return runDiffcheck(app, *kernel, inst, diffcheck.Options{
			ThresholdOverride: *threshold, Deconflict: dec, AutoAnnotate: true,
			Faults: faultPlan, SkipReleaseN: skipRelease,
			Sched: app.Launch.Sched, SchedSeed: app.Launch.SchedSeed, Policy: app.Launch.Policy, StarveLimit: app.StarveLimit,
			WallBudget: app.WallBudget, Cache: app.Cache,
		}, *inject != "")
	}
	if *sweep {
		if err := runSweep(app, inst, dec); err != nil {
			return fail(err)
		}
		return cli.OK
	}

	modes := []string{*mode}
	if *mode == "both" {
		modes = []string{"baseline", "spec"}
	}
	var baseCycles int64
	dumped := false
	for _, mo := range modes {
		opts, mod, err := optionsFor(stdout, mo, inst, dec, *threshold)
		if err != nil {
			return usage(err)
		}
		if mo != "baseline" {
			// The baseline is the reference; faults only ever perturb the
			// speculative side.
			opts.Faults = faultPlan
		}
		var comp *core.Compilation
		if *safe && mo != "baseline" {
			sc, err := app.Cache.CompileSafe(mod, opts)
			if err != nil {
				return fail(err)
			}
			if sc.FellBack {
				reason, _, _ := strings.Cut(sc.FallbackErr.Error(), "\n")
				fmt.Fprintf(stdout, "%-9s failsafe: fell back to PDOM baseline: %s\n", mo+":", reason)
			}
			comp = sc.Compilation
		} else {
			pipe := core.PipelineFor(opts)
			if *passes != "" {
				if pipe, err = core.ParsePipeline(*passes); err != nil {
					return usage(err)
				}
			}
			pipe.VerifyEach = *verifyEach
			if *dumpAfter != "" {
				mode := mo
				pipe.Observer = func(pass string, m *ir.Module) {
					if pass == *dumpAfter {
						dumped = true
						fmt.Fprintf(stdout, "; %s: IR after pass %q\n%s", mode, pass, ir.Print(m))
					}
				}
			}
			if comp, err = core.CompilePipeline(mod, opts, pipe); err != nil {
				return fail(err)
			}
		}
		if *passStats {
			printPassStats(stdout, mo, comp)
		}
		if *remarks {
			for _, r := range comp.Remarks {
				fmt.Fprintln(stdout, r)
			}
		}
		if *printIR {
			fmt.Fprintln(stdout, ir.Print(comp.Module))
		}
		if *dot {
			fmt.Fprintln(stdout, ir.DOT(comp.Module.FuncByName(inst.Kernel)))
		}
		// Observability sinks: the profiler indexes counters by the
		// compiled module's PC numbering, so both attach per mode, after
		// compilation.
		var sinks []simt.EventSink
		var pcProf *obs.Profile
		var rec *obs.TraceRecorder
		var occ *obs.OccupancyRecorder
		if *profile || *profileJSON != "" {
			pcProf = obs.NewProfile(comp.Module)
			sinks = append(sinks, pcProf)
		}
		if *traceOut != "" {
			rec = obs.NewTraceRecorder()
			sinks = append(sinks, rec)
		}
		if *sampleStride > 0 {
			occ = obs.NewOccupancyRecorder()
		}
		runCfg := harness.LaunchConfig(inst)
		runCfg.StarveLimit = app.StarveLimit
		runCfg.WallBudget = app.WallBudget
		runCfg.Model = eng
		runCfg.InterleaveWarps = *interleave
		runCfg.Strict = eng == simt.ModelITS
		runCfg.Events = simt.TeeSinks(sinks...)
		if mo != "baseline" {
			runCfg.SkipReleaseN = skipRelease
		}
		if occ != nil {
			runCfg.SampleStride = *sampleStride
			smpSinks := []simt.SampleSink{occ}
			if rec != nil {
				// The trace recorder turns samples into Perfetto counter
				// tracks alongside its event slices.
				smpSinks = append(smpSinks, rec)
			}
			runCfg.Samples = simt.TeeSampleSinks(smpSinks...)
		}
		res, err := simt.Run(comp.Module, runCfg)
		if err != nil {
			return fail(err)
		}
		m := res.Metrics
		fmt.Fprintf(stdout, "%-9s simt_eff=%5.1f%%  cycles=%-10d issues=%-9d mem_tx=%-8d conflicts=%d\n",
			mo+":", 100*m.SIMTEfficiency(), m.Cycles, m.Issues, m.MemTransactions, len(comp.Conflicts))
		if mo == "baseline" {
			baseCycles = m.Cycles
		} else if baseCycles > 0 {
			fmt.Fprintf(stdout, "          speedup over baseline: %.2fx\n", float64(baseCycles)/float64(m.Cycles))
		}
		if *profile {
			fmt.Fprintf(stdout, "\n%s profile:\n\n", mo)
			if err := pcProf.WriteMarkdown(stdout, *profileTop); err != nil {
				return fail(err)
			}
		}
		if occ != nil {
			fmt.Fprintf(stdout, "\n%s occupancy (stride %d, %d samples):\n\n", mo, *sampleStride, occ.Len())
			if err := occ.WriteMarkdown(stdout); err != nil {
				return fail(err)
			}
			if app.Reg != nil {
				harness.PublishOccupancy(app.Reg, *kernel+"/"+mo, occ.PerSM())
			}
		}
		if *profileJSON != "" {
			if err := cli.WriteTo(modeSuffixed(*profileJSON, mo, len(modes) > 1), stdout, pcProf.WriteJSON); err != nil {
				return fail(err)
			}
		}
		if *traceOut != "" {
			if err := cli.WriteTo(modeSuffixed(*traceOut, mo, len(modes) > 1), stdout, rec.WriteTrace); err != nil {
				return fail(err)
			}
		}
	}
	if *dumpAfter != "" && !dumped {
		fmt.Fprintf(stderr, "specrecon: -dump-ir-after=%q never fired (pass not in pipeline; see -list-passes)\n", *dumpAfter)
	}
	return cli.OK
}

// modeSuffixed inserts "-<mode>" before path's extension when a run
// covers several modes, so -mode both writes distinct artifacts.
func modeSuffixed(path, mode string, multi bool) string {
	if !multi {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "-" + mode + ext
}

// printPassStats renders the per-pass instrumentation table behind
// -print-pass-stats.
func printPassStats(out io.Writer, mode string, comp *core.Compilation) {
	fmt.Fprintf(out, "%s pipeline: %s (compile %s)\n", mode, comp.Pipeline, comp.CompileTime.Round(time.Microsecond))
	w := len("pass")
	for _, s := range comp.PassStats {
		w = max(w, len(s.Pass))
	}
	fmt.Fprintf(out, "  %-*s %10s %8s %8s %8s %7s %8s\n", w, "pass", "time", "instrs", "Δinstrs", "bar-ops", "minted", "remarks")
	for _, s := range comp.PassStats {
		fmt.Fprintf(out, "  %-*s %10s %8d %+8d %8d %7d %8d\n",
			w, s.Pass, s.Wall.Round(time.Microsecond), s.InstrsAfter, s.InstrDelta(), s.BarrierOpsAfter, s.BarriersMinted, s.Remarks)
	}
}

// runDiffcheck runs the differential checker on the loaded kernel under
// flags, the options the command line gives, and returns the exit
// status: Fail on a finding. A .sasm file is replayed under the options
// its repro directives record (launch, seed, memory, fault, scheduler),
// each of which yields to an -inject spec (injected) or a scheduler flag
// moved off its default.
func runDiffcheck(app *cli.App, path string, inst *workloads.Instance, flags diffcheck.Options, injected bool) int {
	k, opts := harness.DiffcheckKernel(inst), flags
	if strings.HasSuffix(path, ".sasm") {
		loaded, recorded, err := diffcheck.LoadRepro(path)
		if err != nil {
			return app.Fail(cli.Usage, err)
		}
		k, opts.Repair = loaded, recorded.Repair
		if !injected {
			opts.Faults, opts.SkipReleaseN = recorded.Faults, recorded.SkipReleaseN
		}
		if flags.Sched == simt.SchedGreedyConverge {
			opts.Sched, opts.SchedSeed = recorded.Sched, recorded.SchedSeed
		}
		opts.Policy = cmp.Or(flags.Policy, recorded.Policy)
		opts.StarveLimit = cmp.Or(flags.StarveLimit, recorded.StarveLimit)
	}
	res := diffcheck.Check(k, opts)
	if !res.OK {
		fmt.Fprintf(app.Stdout, "diffcheck: FAIL at %s: %v\n", res.Stage, res.Err)
		return cli.Fail
	}
	fmt.Fprintf(app.Stdout, "diffcheck: ok (base cycles %d, spec cycles %d)\n",
		res.BaseMetrics.Cycles, res.SpecMetrics.Cycles)
	return cli.OK
}

// runSweep measures the kernel across soft-barrier thresholds, each
// point's final memory checked against the baseline's.
func runSweep(app *cli.App, inst *workloads.Instance, dec core.DeconflictMode) error {
	defer harness.UseCompileCache(harness.UseCompileCache(app.Cache))
	opts := core.SpecReconOptions()
	opts.Deconflict = dec
	rows, err := harness.ThresholdSweep(inst, opts, []int{1, 4, 8, 12, 16, 20, 24, 28, 30, 32}, 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(app.Stdout, "baseline: eff %5.1f%%  cycles %d\n", 100*rows[0].BaseEff, rows[0].BaseCycles)
	fmt.Fprintf(app.Stdout, "%9s %10s %10s\n", "threshold", "simt eff", "speedup")
	for _, c := range rows {
		fmt.Fprintf(app.Stdout, "%9d %9.1f%% %9.2fx\n", c.Threshold, 100*c.SpecEff, c.Speedup())
	}
	return nil
}

func loadInstance(kernel string, cfg workloads.BuildConfig) (*workloads.Instance, error) {
	if strings.HasSuffix(kernel, ".sasm") {
		src, err := os.ReadFile(kernel)
		if err != nil {
			return nil, err
		}
		mod, err := ir.Parse(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", kernel, err)
		}
		return &workloads.Instance{
			Module:    mod,
			Kernel:    mod.Funcs[0].Name,
			Threads:   cmp.Or(cfg.Threads, ir.WarpWidth),
			Seed:      cfg.Seed,
			Grid:      cfg.Grid,
			CTASize:   cfg.CTASize,
			SMs:       cfg.SMs,
			Workers:   cfg.Workers,
			Policy:    cfg.Policy,
			Sched:     cfg.Sched,
			SchedSeed: cfg.SchedSeed,
		}, nil
	}
	w, err := workloads.Get(kernel)
	if err != nil {
		return nil, err
	}
	return w.Build(cfg), nil
}

// optionsFor returns the compile options and the module to compile for a
// mode. Auto mode strips manual annotations and runs the detector.
func optionsFor(out io.Writer, mode string, inst *workloads.Instance, dec core.DeconflictMode, threshold int) (core.Options, *ir.Module, error) {
	mod := inst.Module
	switch mode {
	case "baseline":
		return core.BaselineOptions(), mod, nil
	case "spec":
	case "auto":
		var applied []core.Candidate
		mod, applied = harness.AutoAnnotated(mod, core.DefaultAutoDetectOptions())
		for _, c := range applied {
			fmt.Fprintf(out, "auto: %s candidate at=%s label=%s score=%.1f\n", c.Kind, c.At.Name, c.Label.Name, c.Score())
		}
	default:
		return core.Options{}, nil, fmt.Errorf("unknown mode %q", mode)
	}
	opts := core.SpecReconOptions()
	opts.Deconflict = dec
	opts.ThresholdOverride = threshold
	return opts, mod, nil
}

// parseNamed returns the one of vals that prints as s.
func parseNamed[T fmt.Stringer](what, s string, vals ...T) (T, error) {
	for _, v := range vals {
		if v.String() == s {
			return v, nil
		}
	}
	var none T
	return none, fmt.Errorf("unknown %s %q", what, s)
}
