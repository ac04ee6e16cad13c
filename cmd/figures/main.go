// Command figures regenerates every results figure of the paper:
//
//	figures -fig 7     SIMT efficiency before/after (annotated suite)
//	figures -fig 8     efficiency improvement vs speedup
//	figures -fig 9     soft-barrier threshold sweeps (PathTracer, XSBench)
//	figures -fig 10    automatic speculative reconvergence + 5.4 funnel
//	figures -fig all   everything, in order
//
// Output is plain text tables; EXPERIMENTS.md records a reference run and
// compares each against the paper's reported shape.
//
// Exit status: 0 every requested figure was produced; 1 an experiment
// failed; 2 a flag, a flag value or an output file it cannot use.
package main

import (
	"fmt"
	"io"
	"os"

	"specrecon/internal/cli"
	"specrecon/internal/harness"
	"specrecon/internal/workloads"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) (code int) {
	app := cli.New("figures", stdout, stderr)
	var (
		fig      = app.String("fig", "all", "7 | 8 | 9 | 10 | all")
		apps     = app.Int("apps", 520, "corpus size for the section 5.4 funnel")
		markdown = app.Bool("markdown", false, "emit the full suite as markdown tables (EXPERIMENTS.md style)")
		traceDir = app.String("trace-dir", "", "also dump per-workload Perfetto traces (baseline and spec) into this directory")
		jobs     = app.Int("j", 0, "worker-pool size for the experiment drivers (0 = GOMAXPROCS, 1 = serial)")
	)
	app.LaunchFlags()
	app.SchedFlags()
	app.CacheFlags()
	app.ProfileFlags()
	app.LedgerFlag()
	if code, done := app.Parse(args); done {
		return code
	}
	defer app.Close(&code)
	cfg := app.Launch
	// The drivers compile and report through the harness's process-wide
	// cache and registry; both are put back on the way out.
	defer harness.UseCompileCache(harness.UseCompileCache(app.Cache))
	defer harness.UseTelemetry(harness.UseTelemetry(app.Reg))

	if *markdown {
		if err := harness.WriteMarkdownReport(stdout, cfg, *apps, *jobs); err != nil {
			return app.Fail(cli.Fail, err)
		}
	} else {
		// Figures 7 and 8 are two views of one measurement of the annotated
		// suite; -fig all measures it once.
		var suite []harness.Comparison
		measured := func(view func(io.Writer, []harness.Comparison)) error {
			if suite == nil {
				var err error
				if suite, err = harness.Figure7(cfg, *jobs); err != nil {
					return err
				}
			}
			view(stdout, suite)
			return nil
		}
		for _, f := range []struct {
			name string
			run  func() error
		}{
			{"7", func() error { return measured(figure7) }},
			{"8", func() error { return measured(figure8) }},
			{"9", func() error { return figure9(stdout, cfg, *jobs) }},
			{"10", func() error { return figure10(stdout, cfg, *apps, *jobs) }},
		} {
			if *fig != "all" && *fig != f.name {
				continue
			}
			if err := f.run(); err != nil {
				return app.Fail(cli.Fail, fmt.Errorf("figure %s: %w", f.name, err))
			}
		}
	}
	if *traceDir != "" {
		paths, err := harness.DumpTraces(*traceDir, cfg, *jobs)
		if err != nil {
			return app.Fail(cli.Fail, err)
		}
		fmt.Fprintf(stdout, "wrote %d traces to %s (open in ui.perfetto.dev)\n", len(paths), *traceDir)
	}
	if err := app.Record("figures", cfg, nil); err != nil {
		return app.Fail(cli.Usage, err)
	}
	return cli.OK
}

func figure7(out io.Writer, rows []harness.Comparison) {
	fmt.Fprintln(out, "Figure 7: SIMT efficiency, programmer-annotated applications")
	fmt.Fprintln(out, "  (paper: significant increases after moving reconvergence points)")
	fmt.Fprintf(out, "  %-12s %-16s %10s %10s %10s\n", "benchmark", "pattern", "base eff", "spec eff", "threshold")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-12s %-16s %9.1f%% %9.1f%% %10d\n",
			r.Name, r.Pattern, 100*r.BaseEff, 100*r.SpecEff, r.Threshold)
	}
	fmt.Fprintln(out)
}

func figure8(out io.Writer, rows []harness.Comparison) {
	fmt.Fprintln(out, "Figure 8: SIMT efficiency improvement versus speedup")
	fmt.Fprintln(out, "  (paper: improvements 10% to 3x; efficiency gain roughly upper-bounds speedup)")
	fmt.Fprintf(out, "  %-12s %14s %10s\n", "benchmark", "eff improvement", "speedup")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-12s %13.2fx %9.2fx\n", r.Name, r.EffImprovement(), r.Speedup())
	}
	fmt.Fprintln(out)
}

func figure9(out io.Writer, cfg workloads.BuildConfig, jobs int) error {
	thresholds := []int{1, 4, 8, 12, 16, 20, 24, 28, 30, 32}
	fmt.Fprintln(out, "Figure 9: SIMT efficiency and speedup with soft barrier")
	fmt.Fprintln(out, "  threshold = lanes that must collect before the cohort proceeds")
	for _, name := range []string{"pathtracer", "xsbench"} {
		pts, err := harness.Figure9(name, cfg, thresholds, jobs)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  %s:\n", name)
		fmt.Fprintf(out, "    %9s %10s %10s\n", "threshold", "simt eff", "speedup")
		for _, p := range pts {
			fmt.Fprintf(out, "    %9d %9.1f%% %9.2fx\n", p.Threshold, 100*p.Eff, p.Speedup)
		}
	}
	fmt.Fprintln(out)
	return nil
}

func figure10(out io.Writer, cfg workloads.BuildConfig, apps, jobs int) error {
	rows, err := harness.Figure10(cfg, jobs)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "Figure 10: automatic speculative reconvergence")
	fmt.Fprintf(out, "  %-13s %10s %10s %10s\n", "kernel", "base eff", "auto eff", "speedup")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-13s %9.1f%% %9.1f%% %9.2fx\n", r.Name, 100*r.BaseEff, 100*r.SpecEff, r.Speedup())
	}

	funnel, err := harness.RunFunnel(apps, 42, jobs)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\nSection 5.4 application-population funnel")
	fmt.Fprintf(out, "  studied applications:        %4d   (paper: 520)\n", funnel.Studied)
	fmt.Fprintf(out, "  SIMT efficiency < 80%%:       %4d   (paper: 75)\n", funnel.LowEff)
	fmt.Fprintf(out, "  non-trivial opportunity:     %4d   (paper: 16)\n", funnel.Detected)
	fmt.Fprintf(out, "  significant improvement:     %4d   (paper: 5)\n", funnel.Significant)
	fmt.Fprintf(out, "  regressions among detected:  %4d   (paper: \"many ... see no change or even regression\")\n", funnel.Regressed)
	fmt.Fprintln(out)
	return nil
}
