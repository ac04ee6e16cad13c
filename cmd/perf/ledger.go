package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"specrecon/internal/telemetry"
)

type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, "; ") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

// ledger is `perf ledger`: it gates the newest record of the run ledger
// (runs.jsonl: a JSONL history the tools' -ledger flags append to, each
// record carrying a git revision, a config fingerprint and a flat metric
// map; see internal/telemetry.RunRecord) against its own history. It
// takes the last N records (default 2) of the same tool — and, when the
// latest record carries one, the same config fingerprint — and applies
// each gate to the ratio latest/baseline of its metric:
//
//	perf ledger -ledger runs.jsonl -tool diffhunt-sched -last 5 \
//	  -gate "findings <= 1" -gate "wall_seconds <= 2"
//
// A gate "metric <= 1.10" fails when the latest value exceeds the
// baseline by more than 10%. The baseline is the oldest of the last N
// records carrying the metric; with only one record the gate passes
// vacuously (and says so) — a fresh ledger must not fail CI.
//
// Exit status: 0 when every gate holds (or is vacuous), 1 when a gate
// fails, 2 on usage errors, malformed ledgers or gates naming metrics
// absent from the latest record.
func ledger(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perf ledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		path  = fs.String("ledger", "runs.jsonl", "ledger path")
		tool  = fs.String("tool", "", "only records this tool appended")
		last  = fs.Int("last", 2, "number of trailing records to diff")
		gates stringList
	)
	fs.Var(&gates, "gate", "gate \"<metric> <op> <ratio>\" on latest/baseline (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perf ledger:", err)
		return 2
	}
	if len(gates) == 0 || fs.NArg() != 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	if *last < 2 {
		*last = 2
	}
	recs, err := telemetry.ReadLedger(*path)
	if err != nil {
		return fail(err)
	}
	if *tool != "" {
		recs = slices.DeleteFunc(recs, func(r telemetry.RunRecord) bool { return r.Tool != *tool })
	}
	if len(recs) == 0 {
		return fail(fmt.Errorf("%s has no records (-tool %q)", *path, *tool))
	}
	latest := recs[len(recs)-1]
	// Only compare like with like: when the latest record carries a
	// config fingerprint, history under other fingerprints is ignored.
	history := recs[:len(recs)-1]
	if latest.Config != "" {
		history = slices.DeleteFunc(history, func(r telemetry.RunRecord) bool { return r.Config != latest.Config })
	}
	if len(history) > *last-1 {
		history = history[len(history)-(*last-1):]
	}

	var failures tally
	for _, g := range gates {
		parts := strings.Fields(g)
		if len(parts) != 3 {
			return fail(fmt.Errorf("bad gate %q: want \"<metric> <op> <ratio>\"", g))
		}
		name := parts[0]
		lim, err := parseLimit(parts[1], parts[2])
		if err != nil {
			return fail(fmt.Errorf("bad gate %q: %w", g, err))
		}
		cur, ok := latest.Metrics[name]
		if !ok {
			return fail(fmt.Errorf("gate %q: latest %s record has no metric %q", g, latest.Tool, name))
		}
		base, baseRec, ok := baselineFor(history, name)
		if !ok {
			fmt.Fprintf(stdout, "pass %s: no prior record carries it (vacuous)\n", name)
			continue
		}
		ratio := ratioOf(cur, base)
		fmt.Fprintf(stdout, "%s %s: %g -> %g (ratio %.4g, rev %s -> %s), want %s\n",
			failures.verdict(lim.holds(ratio)), name, base, cur, ratio, cmp.Or(baseRec.GitRev, "unknown"), cmp.Or(latest.GitRev, "unknown"), lim)
	}
	if failures > 0 {
		fmt.Fprintf(stdout, "perf ledger: %d of %d gate(s) failed\n", failures, len(gates))
		return 1
	}
	fmt.Fprintf(stdout, "perf ledger: %d gate(s) hold\n", len(gates))
	return 0
}

// baselineFor returns the oldest value of name among the trailing
// history records that carry it.
func baselineFor(history []telemetry.RunRecord, name string) (float64, telemetry.RunRecord, bool) {
	for _, r := range history {
		if v, ok := r.Metrics[name]; ok {
			return v, r, true
		}
	}
	return 0, telemetry.RunRecord{}, false
}

// ratioOf is latest/baseline with the zero-baseline edges pinned: 0/0
// is 1 (no change) and growth from zero is +Inf (always a regression
// under a <= gate).
func ratioOf(cur, base float64) float64 {
	switch {
	case base != 0:
		return cur / base
	case cur == 0:
		return 1
	default:
		return math.Inf(1)
	}
}
