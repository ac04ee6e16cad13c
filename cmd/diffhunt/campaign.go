package main

import (
	"errors"
	"fmt"

	"specrecon/internal/cli"
	"specrecon/internal/corpus"
	"specrecon/internal/diffcheck"
	"specrecon/internal/harness"
	"specrecon/internal/ir"
	"specrecon/internal/simt"
)

// campaign is one invocation's settings: the corpus, the pool, and — on
// the embedded App — the scheduler selection, the liveness budgets and
// the streams.
type campaign struct {
	*cli.App
	n         int
	seed      uint64
	jobs      int
	mutate    int
	maxIssues int64
	policies  []simt.SchedPolicy
	seeds     []uint64
	reproDir  string
	verbose   bool
}

// cell is one differential check: a kernel under the options that
// perturb it.
type cell struct {
	k    diffcheck.Kernel
	opts diffcheck.Options
}

// String names the cell in report lines: its kernel, and the fault
// planted on it if there is one.
func (x cell) String() string {
	if x.opts.Faults.Zero() {
		return x.k.Name
	}
	return fmt.Sprintf("%s [%s]", x.k.Name, x.opts.Faults)
}

// The outcomes every axis shares; any other bucket an axis's verdict
// names is counted in Stats.Buckets.
const (
	bucketOK      = "ok"
	bucketSkip    = "skip"
	bucketFinding = "finding"
)

// newBaseline and versus are a cell's two steps, variables so a test can
// count the baselines and plant a panic in one cell.
var newBaseline = diffcheck.NewBaseline
var versus = func(b *diffcheck.Baseline, x cell) diffcheck.Result { return b.Versus(x.opts) }

// baseKey is what a cell's baseline reads: its kernel, which the axes
// vary only in its module (mutants) and seed (schedule seeds), and the
// options a baseline reads. Cells with equal keys share one baseline.
type baseKey struct {
	mod  *ir.Module
	seed uint64
	opts diffcheck.Options
}

// run is the one campaign loop: corpus × the axis's cells → check on the
// panic-contained pool → the axis's verdict → report in cell order →
// minimize → repro. The cells that share a baseline are one pool task,
// which makes the baseline once and checks each cell against it. Every
// cell is checked whatever the others do: a check that panics is one
// PANIC line with an unminimized repro (re-checking to minimize could
// panic again).
func (c *campaign) run(ax axis, st *Stats) {
	apps := corpus.Generate(c.n, c.seed)
	var cells []cell
	for _, app := range apps {
		cells = append(cells, ax.cells(c, diffcheck.Kernel{
			Name: app.Name, Module: app.Module, Entry: app.Kernel,
			Threads: app.Threads, Memory: app.Memory, Seed: app.Seed,
		})...)
	}
	var keys []baseKey
	groups := map[baseKey][]int{}
	for i, x := range cells {
		o := x.opts
		key := baseKey{x.k.Module, x.k.Seed, diffcheck.Options{MaxIssues: o.MaxIssues, Policy: o.Policy, WallBudget: o.WallBudget, AutoAnnotate: o.AutoAnnotate}}
		if groups[key] == nil {
			keys = append(keys, key)
		}
		groups[key] = append(groups[key], i)
	}
	results := make([]diffcheck.Result, len(cells))
	errs := make([]error, len(cells))
	harness.RunTasks(c.jobs, len(keys), func(g int) error {
		var b *diffcheck.Baseline
		for _, i := range groups[keys[g]] {
			errs[i] = harness.SafeCall(i, func(i int) error {
				if b == nil {
					made := newBaseline(cells[i].k, cells[i].opts)
					b = &made
				}
				results[i] = versus(b, cells[i])
				return nil
			})
		}
		return nil
	})

	st.Kernels, st.Checks = len(apps), len(cells)
	for i, x := range cells {
		var pe *harness.TaskPanicError
		if errors.As(errs[i], &pe) {
			st.Panics++
			fmt.Fprintf(c.Stdout, "PANIC %s: %v\n", x, pe)
			c.repro(st, x.k, x.opts, diffcheck.Result{Stage: "panic", Err: pe})
			continue
		}
		bucket, line := ax.verdict(x, results[i])
		if line != "" && (c.verbose || bucket == bucketFinding) {
			fmt.Fprintln(c.Stdout, line)
		}
		switch bucket {
		case bucketOK:
			st.OK++
		case bucketSkip:
			st.Skips++
		case bucketFinding:
			c.finding(st, x, results[i])
		default:
			st.Buckets[bucket]++
		}
	}
}

// finding counts a failed check and writes its minimized repro.
func (c *campaign) finding(st *Stats, x cell, res diffcheck.Result) {
	st.Findings++
	st.PerPolicy[x.opts.Sched.String()]++
	st.PerLayer[string(diffcheck.ClassifyFailure(res))]++
	small, res := diffcheck.Minimize(x.k, x.opts)
	c.repro(st, small, x.opts, res)
}

func (c *campaign) repro(st *Stats, k diffcheck.Kernel, opts diffcheck.Options, res diffcheck.Result) {
	path, err := diffcheck.WriteRepro(c.reproDir, k, opts, res)
	if err != nil {
		c.Fail(cli.Fail, fmt.Errorf("writing repro for %s: %w", k.Name, err))
		return
	}
	st.Repros = append(st.Repros, path)
	fmt.Fprintf(c.Stdout, "     repro: %s\n", path)
}
