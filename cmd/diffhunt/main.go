// Command diffhunt runs differential-checking campaigns: it generates a
// seeded corpus of synthetic applications, expands every application
// into the cells of one perturbation axis, pushes each cell through the
// checker (baseline vs speculative build, strict budgeted runs, memory
// comparison) on a panic-contained worker pool, and reports findings in
// cell order. Failing cells are shrunk to minimal standalone .sasm
// repros that record what exposed them. The axes (axis.go):
//
//	-axis spec    the speculative transform: every kernel, plus -mutate
//	              structural mutants, under the -policy/-sched selection
//	-axis sched   the schedule: every kernel under -policies x -seeds on
//	              the speculative run against the greedy reference, with
//	              the starvation monitor and the watchdog armed
//	-axis repair  automated repair: every statically-visible matrix fault
//	              planted over the matrix kernel and the corpus, through
//	              repair-then-reverify; fails unless the post-repair
//	              fallback rate improves on the pre-repair rate
//
// Examples:
//
//	diffhunt -n 500 -seed 42 -matrix      # campaign + fault-injection matrix
//	diffhunt -n 100 -mutate 2 -v -j 4     # also check structural mutants
//	diffhunt -axis sched -n 500 -policies obe,random -seeds 1,2,3,4
//	diffhunt -axis sched -n 60 -matrix -stats stats.json
//	diffhunt -axis repair -n 120
//
// -stats writes the campaign counts as JSON. Cells whose baseline
// build or run fails — possible for structural mutants — are skips, not
// findings: they indict the input, not the transform. A cell whose check
// panics is contained as one PANIC line with an unminimized repro.
//
// Exit status: 0 every check passed and every planted fault of the
// axis's matrix was caught where expected; 1 a finding, a panic, a moved
// matrix row or a repair rate that did not improve; 2 a flag, a flag
// value or an output file it cannot use.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"specrecon/internal/cli"
	"specrecon/internal/simt"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) (code int) {
	app := cli.New("diffhunt", stdout, stderr)
	c := &campaign{App: app}
	var (
		axisName = app.String("axis", "spec", "perturbation axis: spec | sched | repair")
		matrix   = app.Bool("matrix", false, "also run the axis's planted-fault matrix and require every fault caught where expected (on by default on the repair axis, which measures on it)")
		policies = app.String("policies", "oldest,youngest,obe,random", "sched axis: comma-separated scheduling policies to explore")
		seeds    = app.String("seeds", "1,2,3,4", "sched axis: comma-separated schedule seeds; each perturbs the launch seed and seeds the random policy")
		stats    = app.String("stats", "", "write campaign statistics as JSON to this file (\"-\" for stdout)")
	)
	app.IntVar(&c.n, "n", 500, "number of corpus applications to generate")
	app.Uint64Var(&c.seed, "seed", 42, "corpus generation seed")
	app.IntVar(&c.jobs, "j", 0, "parallel workers (0 = GOMAXPROCS)")
	app.IntVar(&c.mutate, "mutate", 0, "spec axis: additionally check up to this many structural mutants per kernel")
	app.Int64Var(&c.maxIssues, "max-issues", 0, "per-run issue budget (0 = checker default; the sched axis defaults to 1<<22)")
	app.StringVar(&c.reproDir, "repros", "testdata/repros", "directory for minimized .sasm repros of findings")
	app.BoolVar(&c.verbose, "v", false, "print one line per check")
	app.SchedFlags()
	app.LivenessFlags()
	if code, done := app.Parse(args); done {
		return code
	}
	defer app.Close(&code)

	ax, ok := axes[*axisName]
	if !ok {
		return app.Fail(cli.Usage, fmt.Errorf("unknown axis %q (spec|sched|repair)", *axisName))
	}
	if c.n < 0 {
		return app.Fail(cli.Usage, fmt.Errorf("-n %d: the corpus size cannot be negative", c.n))
	}
	// The axis's own defaults stand in for every flag the command line
	// left alone.
	given := map[string]bool{}
	app.Visit(func(f *flag.Flag) { given[f.Name] = true })
	for name, value := range ax.defaults {
		if !given[name] {
			app.Set(name, value)
		}
	}
	var err error
	if c.policies, err = parseList(*policies, "policies", parsePolicy); err != nil {
		return app.Fail(cli.Usage, err)
	}
	if c.seeds, err = parseList(*seeds, "seeds", parseSeed); err != nil {
		return app.Fail(cli.Usage, err)
	}

	st := &Stats{PerPolicy: map[string]int{}, PerLayer: map[string]int{}, Buckets: map[string]int{}, Rates: map[string]float64{}}
	failures := 0
	if *matrix {
		failures += ax.matrix(c, st)
	}
	c.run(ax, st)
	failures += st.Findings + st.Panics + ax.summary(c, st)

	if *stats != "" {
		if err := cli.WriteTo(*stats, stdout, st.writeJSON); err != nil {
			return app.Fail(cli.Usage, err)
		}
	}
	if failures > 0 {
		return cli.Fail
	}
	return cli.OK
}

// parseList parses a comma-separated flag value item by item.
func parseList[T any](spec, what string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, item := range strings.Split(spec, ",") {
		if item = strings.TrimSpace(item); item == "" {
			continue
		}
		v, err := parse(item)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no %s in %q", what, spec)
	}
	return out, nil
}

func parsePolicy(name string) (simt.SchedPolicy, error) {
	p, err := simt.ParseSchedPolicy(name)
	if err == nil && p == simt.SchedGreedyConverge {
		err = fmt.Errorf("policy %q is the reference schedule; explore non-greedy policies", name)
	}
	return p, err
}

func parseSeed(s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		err = fmt.Errorf("seed %q: %w", s, err)
	}
	return v, err
}

// Stats is the machine-readable campaign summary (-stats), the same for
// every axis.
type Stats struct {
	Kernels  int `json:"kernels"`
	Checks   int `json:"checks"`
	OK       int `json:"ok"`
	Skips    int `json:"skips"`
	Findings int `json:"findings"`
	Panics   int `json:"panics"`
	// PerPolicy / PerLayer break findings down by the warp scheduler of
	// the speculative run and by detection layer.
	PerPolicy map[string]int `json:"per_policy"`
	PerLayer  map[string]int `json:"per_layer"`
	// Buckets counts the outcomes only the axis names, and Rates what it
	// derives from them (the repair axis: planted, repaired, fallbacks,
	// quiet, mismatches; the fail-safe fallback rates).
	Buckets map[string]int     `json:"buckets,omitempty"`
	Rates   map[string]float64 `json:"rates,omitempty"`
	// Repros lists the repro files written for findings and panics.
	Repros []string `json:"repros,omitempty"`
}

func (st *Stats) writeJSON(w io.Writer) error {
	sort.Strings(st.Repros)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}

// panics is what a summary line that has no panic column appends when
// there is something to put in it.
func (st *Stats) panics() string {
	if st.Panics == 0 {
		return ""
	}
	return fmt.Sprintf(", %d panics", st.Panics)
}
