package main

import (
	"errors"
	"fmt"

	"specrecon/internal/analyze"
	"specrecon/internal/core"
	"specrecon/internal/diffcheck"
)

// axis is one row of the campaign table: how a corpus kernel expands
// into cells and how a cell's result is bucketed. The driver
// (campaign.run) does everything else, so a new perturbation axis is a
// new row.
type axis struct {
	// defaults are the flag defaults that differ on this axis.
	defaults map[string]string
	// cached turns the compile cache on: the axis checks each kernel
	// under many options, and all of them share its baseline build.
	cached bool
	// cells expands one corpus kernel.
	cells func(c *campaign, k diffcheck.Kernel) []cell
	// verdict buckets a result that did not panic, and words its line:
	// printed for a finding, and under -v for any other bucket ("" =
	// never).
	verdict func(x cell, res diffcheck.Result) (bucket, line string)
	// matrix prints the axis's planted-fault table, which -matrix asks
	// for, and returns how many rows missed their expectation.
	matrix func(c *campaign, st *Stats) int
	// summary prints the closing lines and returns the failures the axis
	// holds beyond findings and panics.
	summary func(c *campaign, st *Stats) int
}

var axes = map[string]axis{
	"spec": {
		cells: specCells, verdict: plainVerdict(specFinding),
		matrix: faultMatrix, summary: specSummary,
	},
	"sched": {
		// 1<<22 issues, 1<<21 cycles: corpus kernels retire far below
		// both, so a cell that reaches either is stuck, not slow.
		defaults: map[string]string{"max-issues": "4194304", "starve-limit": "2097152", "wall-budget": "1m"},
		cached:   true,
		cells:    schedCells, verdict: plainVerdict(schedFinding),
		matrix: schedMatrix, summary: schedSummary,
	},
	"repair": {
		// The matrix leg is half of what the axis measures.
		defaults: map[string]string{"matrix": "true"},
		cells:    repairCells, verdict: repairVerdict,
		matrix: repairMatrix, summary: repairSummary,
	},
}

// plainVerdict is the verdict of an axis with no buckets of its own: ok,
// a skip when the baseline itself failed (the kernel is broken — expected
// of some mutants — which is no finding), else a finding worded by fail.
func plainVerdict(fail func(x cell, res diffcheck.Result) string) func(cell, diffcheck.Result) (string, string) {
	return func(x cell, res diffcheck.Result) (string, string) {
		switch {
		case res.OK:
			return bucketOK, "ok   " + x.k.Name
		case res.Stage.BaselineFailure():
			return bucketSkip, fmt.Sprintf("skip %s: %v", x.k.Name, res)
		}
		return bucketFinding, fail(x, res)
	}
}

// specCells: the kernel and up to -mutate of its structural mutants,
// verifier on, under the command line's scheduler selection.
func specCells(c *campaign, k diffcheck.Kernel) []cell {
	opts := diffcheck.Options{
		MaxIssues: c.maxIssues, AutoAnnotate: true, Verify: true, Cache: c.Cache,
		Policy: c.Launch.Policy, Sched: c.Launch.Sched, SchedSeed: c.Launch.SchedSeed,
		StarveLimit: c.StarveLimit, WallBudget: c.WallBudget,
	}
	cells := []cell{{k, opts}}
	if c.mutate > 0 {
		for i, m := range diffcheck.Mutations(k) {
			if i >= c.mutate {
				break
			}
			m.Name = fmt.Sprintf("%s-mut%d", k.Name, i)
			cells = append(cells, cell{m, opts})
		}
	}
	return cells
}

func specFinding(x cell, res diffcheck.Result) string {
	return fmt.Sprintf("FAIL %s: %v", x.k.Name, res)
}

func specSummary(c *campaign, st *Stats) int {
	fmt.Fprintf(c.Stdout, "diffhunt: %d checked, %d ok, %d skipped, %d findings%s\n", st.Checks, st.OK, st.Skips, st.Findings, st.panics())
	return 0
}

// schedCells: the kernel under every -policies × -seeds schedule on the
// speculative run, the liveness monitors armed. Perturbing the launch
// seed makes every schedule seed a different dynamic instance for every
// policy; the baseline runs under the same perturbed seed, so the greedy
// reference stays exact.
func schedCells(c *campaign, k diffcheck.Kernel) []cell {
	var cells []cell
	for _, pol := range c.policies {
		for _, ss := range c.seeds {
			x := cell{k, diffcheck.Options{
				MaxIssues: c.maxIssues, AutoAnnotate: true, Cache: c.Cache,
				Sched: pol, SchedSeed: ss, StarveLimit: c.StarveLimit, WallBudget: c.WallBudget,
			}}
			x.k.Name = fmt.Sprintf("%s-%s-s%d", k.Name, pol, ss)
			x.k.Seed ^= ss * 0x9e3779b97f4a7c15
			cells = append(cells, x)
		}
	}
	return cells
}

// schedFinding adds the analyzer's view: a statically clean kernel
// failing under a legal schedule indicts an engine or the kernel's
// reliance on a progress guarantee, which is worth a different label
// than a kernel the analyzer already flags.
func schedFinding(x cell, res diffcheck.Result) string {
	verdict := "analyzer flags this kernel: schedule dependence expected"
	if len(analyze.Analyze(x.k.Module, analyze.Options{}).Errors()) == 0 {
		verdict = "analyzer-clean kernel: indicts an engine or a progress-model reliance"
	}
	return fmt.Sprintf("FAIL %s at %s [%s]: %v\n     %s", x.k.Name, res.Stage, diffcheck.ClassifySchedFailure(res), res.Err, verdict)
}

func schedSummary(c *campaign, st *Stats) int {
	fmt.Fprintf(c.Stdout, "diffhunt: %d checks (%d kernels x %d policies x %d seeds), %d ok, %d skipped, %d findings, %d panics\n",
		st.Checks, st.Kernels, len(c.policies), len(c.seeds), st.OK, st.Skips, st.Findings, st.Panics)
	return 0
}

// The repair axis's own buckets. Every one but a skip is a fault that was
// planted; a repaired, a fallback and a finding were all fallbacks
// before repair existed, since the repair pass only edits builds the
// plain verifier would have rejected into the PDOM fail-safe.
const (
	// bucketRepaired: the repair pipeline fixed the build, re-verification
	// accepted it and the repaired build's results match the baseline's.
	bucketRepaired = "repaired"
	// bucketFallback: the verifier still rejected after repair gave up.
	bucketFallback = "fallbacks"
	// bucketQuiet: the fault applied but tripped no static check.
	bucketQuiet = "quiet"
	// bucketMismatch: a matrix row whose outcome disagrees with the
	// fault's WantRepaired, counted beside the row's own bucket.
	bucketMismatch = "mismatches"
)

// repairPlans are the faults repair can engage on: it runs on verifier
// rejection, and a fault the verifier cannot see never reaches it.
func repairPlans() []diffcheck.Fault {
	var out []diffcheck.Fault
	for _, f := range diffcheck.FaultMatrix() {
		if f.WantStatic {
			out = append(out, f)
		}
	}
	return out
}

// repairCells: every statically-visible matrix fault planted on the
// auto-annotated kernel and pushed through repair-then-reverify, so a
// repaired kernel is counted and proof-checked against the un-repaired
// baseline by the same check.
func repairCells(c *campaign, k diffcheck.Kernel) []cell {
	var cells []cell
	for _, f := range repairPlans() {
		cells = append(cells, cell{k, diffcheck.Options{
			Faults: f.Plan, AutoAnnotate: true, Verify: true, Repair: true,
			MaxIssues: c.maxIssues, Cache: c.Cache,
		}})
	}
	return cells
}

func repairVerdict(x cell, res diffcheck.Result) (string, string) {
	switch {
	case res.OK && res.Repaired:
		return bucketRepaired, "repair " + x.String()
	case res.OK:
		return bucketQuiet, "quiet  " + x.String()
	case res.Stage == diffcheck.StageVerify && errors.Is(res.Err, core.ErrNoFaultTarget):
		// Corpus kernels vary in barrier layout: nothing was planted.
		return bucketSkip, ""
	case res.Stage == diffcheck.StageVerify:
		return bucketFallback, fmt.Sprintf("fall   %s: %v", x, res.Err)
	case res.Stage.BaselineFailure():
		return bucketSkip, ""
	}
	return bucketFinding, fmt.Sprintf("FAIL %s: %v", x, res)
}

// repairSummary derives the planted count and the fail-safe fallback
// rates, and fails a campaign whose repairs did not lower the rate.
func repairSummary(c *campaign, st *Stats) int {
	b := st.Buckets
	pre := b[bucketRepaired] + b[bucketFallback] + st.Findings
	planted := pre + b[bucketQuiet]
	b["planted"] = planted
	if planted > 0 {
		st.Rates["pre_repair_fallback_rate"] = float64(pre) / float64(planted)
		st.Rates["repair_fallback_rate"] = float64(b[bucketFallback]) / float64(planted)
	}
	fmt.Fprintf(c.Stdout, "diffhunt repair: %d planted, %d repaired, %d fallback, %d quiet, %d skipped, %d mismatches, %d findings%s\n",
		planted, b[bucketRepaired], b[bucketFallback], b[bucketQuiet], st.Skips, b[bucketMismatch], st.Findings, st.panics())
	fmt.Fprintf(c.Stdout, "diffhunt repair: fail-safe fallback rate %.1f%% pre-repair -> %.1f%% post-repair\n",
		100*st.Rates["pre_repair_fallback_rate"], 100*st.Rates["repair_fallback_rate"])
	failures := b[bucketMismatch]
	if b[bucketRepaired] == 0 {
		fmt.Fprintln(c.Stdout, "diffhunt repair: FAIL: no fault was repaired")
		failures++
	} else if pre == b[bucketFallback] {
		fmt.Fprintln(c.Stdout, "diffhunt repair: FAIL: fallback rate did not improve")
		failures++
	}
	return failures
}

// faultMatrix evaluates the fault-injection matrix: every fault must be
// caught, and by the layers it is pinned to.
func faultMatrix(c *campaign, _ *Stats) int {
	bad := 0
	fmt.Fprintln(c.Stdout, "fault-injection matrix:")
	for _, o := range diffcheck.RunMatrix() {
		static, dynamic := "-", "-"
		if o.StaticErr != nil {
			static = "verifier"
		}
		if !o.Dynamic.OK {
			dynamic = string(o.Dynamic.Stage)
		}
		status := "ok"
		switch {
		case !o.Detected():
			status = "ESCAPED"
			bad++
		case !o.ExpectationMet():
			status = "SURFACE MOVED"
			bad++
		}
		fmt.Fprintf(c.Stdout, "  %-16s static=%-9s dynamic=%-9s %s\n", o.Fault.Name, static, dynamic, status)
		if c.verbose && o.StaticErr != nil {
			fmt.Fprintf(c.Stdout, "    %v\n", o.StaticErr)
		}
		if c.verbose && !o.Dynamic.OK {
			fmt.Fprintf(c.Stdout, "    %v\n", o.Dynamic.Err)
		}
	}
	return bad
}

// schedMatrix evaluates the planted scheduler-sensitive faults: each
// must be caught at its pinned layer.
func schedMatrix(c *campaign, _ *Stats) int {
	bad := 0
	fmt.Fprintln(c.Stdout, "scheduler fault matrix:")
	for _, o := range diffcheck.RunSchedMatrix() {
		status := "ok"
		if !o.ExpectationMet() {
			status = "SURFACE MOVED"
			bad++
		}
		greedy := "clean"
		if !o.GreedyClean {
			greedy = "DIRTY"
		}
		static := "clean"
		if !o.AnalyzerClean {
			static = "flagged"
		}
		fmt.Fprintf(c.Stdout, "  %-22s sched=%-8s greedy=%-5s analyzer=%-7s caught=%-10s want=%-10s %s\n",
			o.Fault.Name, o.Fault.Sched, greedy, static, o.Got, o.Fault.WantLayer, status)
		if c.verbose && o.Result.Err != nil {
			fmt.Fprintf(c.Stdout, "    %v\n", o.Result.Err)
		}
	}
	return bad
}

// repairMatrix plants every repairable-or-not matrix fault on the matrix
// kernel, drives it through CompileSafe (repair-then-reverify before the
// PDOM fail-safe) and holds the outcome against the matrix's
// WantRepaired column; mismatches are counted in st and failed by
// repairSummary. A repaired build carries a proof obligation: the
// differential check against the un-repaired baseline must pass.
func repairMatrix(c *campaign, st *Stats) int {
	fmt.Fprintln(c.Stdout, "repair campaign: fault matrix")
	k := diffcheck.MatrixKernel()
	for _, f := range repairPlans() {
		opts := core.SpecReconOptions()
		opts.Faults = f.Plan
		sc, err := core.CompileSafe(k.Module, opts)
		if err != nil {
			fmt.Fprintf(c.Stdout, "  %-16s FAIL: %v\n", f.Name, err)
			st.Findings++
			continue
		}
		bucket, outcome, status, proof := bucketQuiet, "quiet", "ok", "-"
		switch {
		case sc.Repaired != nil:
			bucket, outcome = bucketRepaired, "repaired"
		case sc.FellBack:
			bucket, outcome = bucketFallback, "fallback"
		}
		if (sc.Repaired != nil) != f.WantRepaired {
			status = "POLICY MISMATCH"
			st.Buckets[bucketMismatch]++
		}
		x := cell{k, diffcheck.Options{Faults: f.Plan, Verify: true, Repair: true, MaxIssues: c.maxIssues, Cache: c.Cache}}
		res := diffcheck.Result{OK: true}
		if sc.Repaired != nil {
			proof = "verified"
			if res = check(x.k, x.opts); !res.OK {
				proof, status = "REFUTED", "PROOF FAILED"
			}
		}
		fmt.Fprintf(c.Stdout, "  %-16s %-9s proof=%-9s %s\n", f.Name, outcome, proof, status)
		if c.verbose && sc.Repaired != nil {
			fmt.Fprintf(c.Stdout, "    %s\n", sc.Repaired.Report.Summary())
		}
		if res.OK {
			st.Buckets[bucket]++
		} else {
			c.finding(st, x, res)
		}
	}
	fmt.Fprintf(c.Stdout, "repair campaign: corpus (%d applications)\n", c.n)
	return 0
}
