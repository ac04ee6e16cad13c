// Command bench is the repo's benchmark: six workloads, six end-to-end
// metrics reported on every one, and a traced run that breaks each down
// by layer. See README.md in this directory and BENCHMARK.json at the
// root.
//
//	go run ./bench -seed 42                 every workload, both runs, bench/out/results.json
//	go run ./bench -workload sweep -seed 7 -seconds 10 -trace 0
//	go run ./bench -compare A.json B.json   exit 0 agree, 1 out of bounds, 2 unusable
//
// A run is a closed loop with one client: one goroutine issues the next
// op only after the previous one returned. Each workload runs in its own
// process, so heap state and GC pacing do not leak between them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// defaultSeconds is how long one run measures; BENCHMARK.json's
// run_seconds is the same number.
const defaultSeconds = 10

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
		seed    = flag.Uint64("seed", 42, "seed the workload inputs are made from")
		seconds = flag.Float64("seconds", defaultSeconds, "how long a run issues ops")
		trace   = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run; -1 (without -workload): both")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for results.json, the run records and the trace files")
		compare = flag.Bool("compare", false, "compare two results.json files given as arguments")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout, os.Stderr))
	case flag.NArg() != 0:
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	case *name != "":
		w, ok := workloadByName(*name)
		if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
			fmt.Fprintf(os.Stderr, "bench: -workload needs one of %v, -trace 0 or 1 and -seconds > 0\n", workloadNames())
			os.Exit(2)
		}
		opts := runOptions{seed: *seed, seconds: *seconds, traced: *trace == 1, outDir: *outDir, limits: benchLimits}
		if _, err := runWorkload(w, opts, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	default:
		if err := runAll(*seed, *seconds, *outDir, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	return names
}

// results is the content of results.json: for every workload the record
// of its untraced run and of its traced run.
type results struct {
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]workloadResults `json:"workloads"`
}

type workloadResults struct {
	EndToEnd *runRecord `json:"end_to_end"`
	PerLayer *runRecord `json:"per_layer"`
}

// runAll runs every workload twice — untraced for the end-to-end
// metrics, then traced for the per-layer ones — each run in a child
// process of this same binary, and writes results.json.
func runAll(seed uint64, seconds float64, outDir string, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := results{Seed: seed, Seconds: seconds, Workloads: map[string]workloadResults{}}
	failed := 0
	for _, w := range allWorkloads {
		var recs [2]*runRecord
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(self,
				"-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(trace), "-out", outDir)
			cmd.Stderr = os.Stderr // the record file carries what the child prints
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s -trace %d: %w", w.name, trace, err)
			}
			recs[trace] = new(runRecord)
			if err := readJSON(filepath.Join(outDir, recordFile(w.name, trace == 1)), recs[trace]); err != nil {
				return err
			}
			defs := endToEnd
			if trace == 1 {
				defs = perLayer
			}
			printRecord(stdout, recs[trace], defs)
			failed += recs[trace].Failed
		}
		all.Workloads[w.name] = workloadResults{EndToEnd: recs[0], PerLayer: recs[1]}
	}
	path := filepath.Join(outDir, "results.json")
	if err := writeJSON(path, all); err != nil {
		return err
	}
	printSummary(stdout, &all)
	fmt.Fprintf(stdout, "\nwrote %s and %d trace files %s (open one in ui.perfetto.dev)\n",
		path, len(allWorkloads), filepath.Join(outDir, "trace.<workload>.json"))
	if failed > 0 {
		return fmt.Errorf("%d ops failed their checks", failed)
	}
	return nil
}

// printSummary prints the end-to-end metrics, one row per workload.
func printSummary(w io.Writer, all *results) {
	fmt.Fprintf(w, "\nend-to-end (seed %d, %g s per run, tracing off)\n%-14s %5s %6s", all.Seed, all.Seconds, "workload", "ops", "failed")
	for _, d := range endToEnd {
		fmt.Fprintf(w, " %22s", d.name+"["+d.unit+"]")
	}
	fmt.Fprintf(w, "  %-16s\n", "result_digest")
	for _, wl := range allWorkloads {
		rec := all.Workloads[wl.name].EndToEnd
		fmt.Fprintf(w, "%-14s %5d %6d", wl.name, rec.Attempted, rec.Failed)
		for _, d := range endToEnd {
			fmt.Fprintf(w, " %22.6g", rec.Metrics[d.name].Value)
		}
		fmt.Fprintf(w, "  %-16s", rec.ResultDigest)
		if rec.Noisy {
			fmt.Fprintf(w, "  noisy (calibration drift %.3f)", rec.CalibDrift)
		}
		fmt.Fprintln(w)
	}
}
