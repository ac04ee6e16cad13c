// Command simtviz renders an ASCII lane-occupancy timeline for one warp
// of a kernel — the textual analogue of the paper's Figure 1 / Figure
// 3(b) execution cartoons. Compare the baseline and speculative builds
// to see convergence change shape:
//
//	simtviz -kernel rsbench -mode baseline -rows 60
//	simtviz -kernel rsbench -mode spec -rows 60
//
// Exit status: 0 rendered; 1 the compile or the run failed; 2 a flag or
// a workload name it cannot use.
package main

import (
	"fmt"
	"io"
	"os"

	"specrecon/internal/cli"
	"specrecon/internal/core"
	"specrecon/internal/harness"
	"specrecon/internal/simt"
	"specrecon/internal/viz"
	"specrecon/internal/workloads"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) (code int) {
	app := cli.New("simtviz", stdout, stderr)
	var (
		kernel = app.String("kernel", "rsbench", "workload name")
		mode   = app.String("mode", "baseline", "baseline | spec")
		rows   = app.Int("rows", 80, "max timeline rows")
		hist   = app.Bool("hist", false, "also print the active-lane histogram")
	)
	app.IntVar(&app.Launch.Tasks, "tasks", 4, "tasks per thread (small values keep timelines readable)")
	app.GridFlags()
	if code, done := app.Parse(args); done {
		return code
	}
	defer app.Close(&code)

	w, err := workloads.Get(*kernel)
	if err != nil {
		return app.Fail(cli.Usage, err)
	}
	app.Launch.Threads = 32
	inst := w.Build(app.Launch)

	opts := core.BaselineOptions()
	if *mode == "spec" {
		opts = core.SpecReconOptions()
	}
	comp, err := core.Compile(inst.Module, opts)
	if err != nil {
		return app.Fail(cli.Fail, err)
	}

	tl := viz.NewTimeline(0)
	cfg := harness.LaunchConfig(inst)
	cfg.Events = tl
	res, err := simt.Run(comp.Module, cfg)
	if err != nil {
		return app.Fail(cli.Fail, err)
	}

	fmt.Fprintf(stdout, "%s (%s): %s\n\n", *kernel, *mode, res.Metrics.String())
	fmt.Fprint(stdout, tl.Render(*rows))
	if *hist {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, tl.OccupancyHistogram())
	}
	return cli.OK
}
