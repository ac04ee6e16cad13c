package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os/exec"
	"sort"
)

// metric is the end-to-end metric a gain is claimed on; lower is better.
const metric = "op_wall_s"

// sample is one run's reading: the metric and its failed-op count.
type sample struct {
	value             float64
	attempted, failed int
}

// pairs is `perf pairs`: the alternated-pairs protocol a performance
// claim is judged by (the choosing-metrics rule BENCHMARK.json's driver
// applies). N pairs of one benchmark workload, parent checkout A against
// change checkout B, alternating which side runs first, each run through
// the checkout's own bench/run.sh (which builds that checkout's benchmark
// on first use; later builds are cache hits) with tracing off and the
// benchmark's own seed and run length (the runner's defaults, which its
// schema test pins to BENCHMARK.json).
//
//	perf pairs -a /path/parent -b . -w grid_launch -n 10
//
// It prints every pair's op_wall_s, both sides' medians and quartiles and
// the win count, and claims a gain (exit 0) only when B wins at least
// nine tenths of the pairs (ties count for neither side) with the medians
// further apart than A's own inter-quartile range; exit 1 when it does
// not or B fails more ops than A, 2 on a run that cannot be read.
func pairs(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perf pairs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		a = fs.String("a", "", "checkout of the parent commit")
		b = fs.String("b", "", "checkout of the change")
		w = fs.String("w", "grid_launch", "benchmark workload")
		n = fs.Int("n", 10, "pairs to run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *a == "" || *b == "" || *n < 1 || fs.NArg() != 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	one := func(dir string) (sample, error) {
		cmd := exec.Command("sh", "bench/run.sh", "-workload", *w, "-trace", "0")
		cmd.Dir = dir
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return sample{}, fmt.Errorf("%s: bench/run.sh: %w", dir, err)
		}
		return parseResult(out)
	}
	var as, bs []sample
	for i := 0; i < *n; i++ {
		// got[0] is A's reading, got[1] B's; odd pairs run B first.
		var got [2]sample
		for k := 0; k < 2; k++ {
			side := (k + i) % 2
			var err error
			if got[side], err = one([2]string{*a, *b}[side]); err != nil {
				fmt.Fprintln(stderr, "perf pairs:", err)
				return 2
			}
		}
		as, bs = append(as, got[0]), append(bs, got[1])
		fmt.Fprintf(stdout, "pair %2d  %s  A %.6g  B %.6g\n", i+1, metric, got[0].value, got[1].value)
	}
	ok, report := verdict(as, bs)
	fmt.Fprint(stdout, report)
	if !ok {
		return 1
	}
	return 0
}

// parseResult reads the metric out of the JSON line a run ends with.
func parseResult(out []byte) (sample, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r record
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return sample{}, fmt.Errorf("last line of the run is not its result: %w", err)
	}
	m, found := r.Metrics[metric]
	if !found || !r.Correct {
		return sample{}, fmt.Errorf("run reports correct=%v and no metric %q", r.Correct, metric)
	}
	return sample{value: m.Value, attempted: r.Attempted, failed: r.Failed}, nil
}

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// verdict applies the claim rule to the paired samples (lower is
// better) and renders the summary.
func verdict(as, bs []sample) (bool, string) {
	var av, bv []float64
	wins, losses := 0, 0
	var aTried, aFailed, bTried, bFailed int
	for i := range as {
		av, bv = append(av, as[i].value), append(bv, bs[i].value)
		switch {
		case bs[i].value < as[i].value:
			wins++
		case bs[i].value > as[i].value:
			losses++
		}
		aTried, aFailed = aTried+as[i].attempted, aFailed+as[i].failed
		bTried, bFailed = bTried+bs[i].attempted, bFailed+bs[i].failed
	}
	sort.Float64s(av)
	sort.Float64s(bv)
	aMed, bMed := quantile(av, 0.5), quantile(bv, 0.5)
	aIQR := quantile(av, 0.75) - quantile(av, 0.25)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "A median %.6g  quartiles %.6g-%.6g\n", aMed, quantile(av, 0.25), quantile(av, 0.75))
	fmt.Fprintf(&buf, "B median %.6g  quartiles %.6g-%.6g\n", bMed, quantile(bv, 0.25), quantile(bv, 0.75))
	fmt.Fprintf(&buf, "B wins %d of %d (%d losses); medians differ by %.6g (%+.1f%%), A's inter-quartile range is %.6g\n",
		wins, len(as), losses, aMed-bMed, 100*(bMed-aMed)/aMed, aIQR)
	// A larger share of failed ops: cross-multiplied, so no side with
	// nothing attempted divides by zero.
	moreFailures := bFailed*aTried > aFailed*bTried
	ok := 10*wins >= 9*len(as) && aMed-bMed > aIQR && !moreFailures
	switch {
	case moreFailures:
		fmt.Fprintf(&buf, "NOT MET: B failed %d of %d ops, A %d of %d\n", bFailed, bTried, aFailed, aTried)
	case ok:
		fmt.Fprintln(&buf, "GAIN: B wins at least nine tenths of the pairs and the medians differ by more than A's spread")
	default:
		fmt.Fprintln(&buf, "NOT MET: needs nine tenths of the pairs won and medians further apart than A's spread")
	}
	return ok, buf.String()
}
