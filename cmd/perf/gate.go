package main

import (
	"fmt"
	"io"
	"path/filepath"
)

// gate is `perf gate`, the benchmark step of make check: it holds a
// fresh short untraced run of every workload (FRESH_DIR, written by
// `sh bench/run.sh -workload W -seed 42 -seconds 1 -trace 0 -out
// FRESH_DIR`) against the committed records of the same run (BASE_DIR)
// on what is deterministic on a shared host. Per workload BENCHMARK.json
// lists: no failed op on either side, result_digest equal, and every
// end-to-end metric that is not a time (unit "s": wall and CPU time move
// ±10% here and are judged by `perf pairs`) within the bound
// BENCHMARK.json gives it, as fresh/base - 1 — the rule `bench -compare`
// applies. Workloads, metrics and bounds all come from BENCHMARK.json;
// there is no second copy and no option. A metric that reads better than
// its record by more than its bound passes with a "stale" line: the
// record leaves that much for a later change to lose unseen, so the
// change that moved it re-records (`make perf-baseline`).
//
// Exit status: 0 when everything holds, 1 when something does not, 2 on
// an unreadable BENCHMARK.json, a workload with no record in a
// directory, or a record without a usable metric.
func gate(args []string, stdout, stderr io.Writer) int {
	if len(args) != 3 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perf gate:", err)
		return 2
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name  string  `json:"name"`
			Unit  string  `json:"unit"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if _, err := readJSON(args[0], &spec); err != nil {
		return fail(err)
	}
	if len(spec.Workloads) == 0 || len(spec.EndToEnd) == 0 {
		return fail(fmt.Errorf("%s lists no workloads or no end_to_end metrics", args[0]))
	}

	var failures tally
	check := func(ok bool, format string, a ...any) {
		fmt.Fprintf(stdout, "%s %s\n", failures.verdict(ok), fmt.Sprintf(format, a...))
	}
	for _, w := range spec.Workloads {
		var side [2]record // base, fresh
		for i, dir := range args[1:] {
			if _, err := readJSON(filepath.Join(dir, "run."+w.Name+".e2e.json"), &side[i]); err != nil {
				return fail(fmt.Errorf("workload %s: %w", w.Name, err))
			}
		}
		base, fresh := side[0], side[1]
		check(base.Correct && fresh.Correct && base.Failed+fresh.Failed == 0,
			"%s failed ops: %d of %d -> %d of %d", w.Name, base.Failed, base.Attempted, fresh.Failed, fresh.Attempted)
		check(base.ResultDigest == fresh.ResultDigest,
			"%s result_digest: %s -> %s", w.Name, base.ResultDigest, fresh.ResultDigest)
		for _, m := range spec.EndToEnd {
			if m.Unit == "s" {
				continue
			}
			vb, okb := base.Metrics[m.Name]
			vf, okf := fresh.Metrics[m.Name]
			if !okb || !okf || vb.Value <= 0 {
				return fail(fmt.Errorf("workload %s has no usable %s", w.Name, m.Name))
			}
			ratio, lim := vf.Value/vb.Value, limit{"<=", 1 + m.Bound}
			check(lim.holds(ratio), "%s %s: %g -> %g (ratio %.4f), want %s",
				w.Name, m.Name, vb.Value, vf.Value, ratio, lim)
			if ratio < 1-m.Bound {
				fmt.Fprintf(stdout, "stale %s %s: the committed record is %.1f%% above this run, more than the %g%% bound; run `make perf-baseline` and commit %s\n",
					w.Name, m.Name, 100*(1/ratio-1), 100*m.Bound, args[1])
			}
		}
	}
	if failures > 0 {
		fmt.Fprintf(stdout, "perf gate: %d check(s) failed over %d workloads\n", failures, len(spec.Workloads))
		return 1
	}
	fmt.Fprintf(stdout, "perf gate: %d workloads hold: no failed op, digests equal, allocation and heap metrics within BENCHMARK.json's bounds\n", len(spec.Workloads))
	return 0
}
