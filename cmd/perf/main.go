// Command perf is the repo's one performance tool: four subcommands
// over the repo benchmark (bench/, BENCHMARK.json) and the run ledger
// (runs.jsonl).
//
//	perf gate BENCHMARK.json BASE_DIR FRESH_DIR   the make check gate (gate.go)
//	perf pairs -a PARENT -b CHANGE [-w W] [-n N]  judge a claimed gain (pairs.go)
//	perf ledger -ledger F [-tool T] [-last N] -gate "<metric> <op> <ratio>"...
//	                                              gate a trend (ledger.go)
//	perf json FILE...                             non-empty well-formed JSON (json.go)
//
// Exit status, every subcommand: 0 when what it checks holds, 1 when it
// does not, 2 on a usage error or an input it cannot use (an unreadable
// or malformed file, a gate naming an unknown metric, a workload with no
// record) — a silently vacuous check would defeat its purpose.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

const usage = `usage: perf gate BENCHMARK.json BASE_DIR FRESH_DIR
       perf pairs -a <parent checkout> -b <change checkout> [-w workload] [-n pairs]
       perf ledger [-ledger runs.jsonl] [-tool NAME] [-last N] -gate "<metric> <op> <ratio>"...
       perf json FILE...
`

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its process surface injected, so tests drive the CLI
// end to end: args are the command line without the program name, and
// the return value is the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch sub, rest := args[0], args[1:]; sub {
		case "gate":
			return gate(rest, stdout, stderr)
		case "pairs":
			return pairs(rest, stdout, stderr)
		case "ledger":
			return ledger(rest, stdout, stderr)
		case "json":
			return jsonCheck(rest, stdout, stderr)
		}
	}
	fmt.Fprint(stderr, usage)
	return 2
}

// record is what perf reads of one benchmark run: the fields shared by
// the JSON line bench prints last on a one-workload run (pairs) and the
// run.<workload>.e2e.json file it writes beside it (gate).
type record struct {
	Correct      bool   `json:"correct"`
	Attempted    int    `json:"attempted"`
	Failed       int    `json:"failed"`
	ResultDigest string `json:"result_digest"`
	Metrics      map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// readJSON decodes the non-empty JSON file at path into v and returns
// its size; the error names the path.
func readJSON(path string, v any) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if len(raw) == 0 {
		return 0, fmt.Errorf("%s: empty file", path)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return len(raw), nil
}

// tally counts the checks that failed and words each one's verdict.
type tally int

func (t *tally) verdict(ok bool) string {
	if ok {
		return "pass"
	}
	*t++
	return "FAIL"
}

// limit is the right-hand side of a gate: an operator and the number a
// value (for both ledger and gate, a latest/baseline ratio) is held to.
type limit struct {
	op string
	to float64
}

func parseLimit(op, to string) (limit, error) {
	v, err := strconv.ParseFloat(to, 64)
	if err != nil {
		return limit{}, err
	}
	switch op {
	case "<", "<=", ">", ">=":
		return limit{op, v}, nil
	}
	return limit{}, fmt.Errorf("unknown operator %q (want < <= > >=)", op)
}

func (l limit) holds(v float64) bool {
	switch l.op {
	case "<":
		return v < l.to
	case "<=":
		return v <= l.to
	case ">":
		return v > l.to
	default:
		return v >= l.to
	}
}

func (l limit) String() string { return fmt.Sprintf("%s %g", l.op, l.to) }
