// Command diffhunt runs differential-checking campaigns: it generates a
// seeded corpus of synthetic applications, pushes every kernel through
// the checker (baseline vs speculative build, strict budgeted runs,
// memory comparison), and reports findings. Failing kernels are shrunk
// to minimal standalone .sasm repros.
//
// Examples:
//
//	diffhunt -n 500 -seed 42            # seeded campaign, clean exit 0
//	diffhunt -n 500 -seed 42 -matrix    # campaign + fault-injection matrix
//	diffhunt -n 100 -mutate             # also check structural mutants
//	diffhunt -n 50 -v -j 4              # verbose, four workers
//	diffhunt -n 120 -repair             # automated-repair mutation campaign
//
// -repair replaces the standard campaign with the repair measurement:
// every statically-visible matrix fault is planted over the canonical
// kernel and the corpus, pushed through the repair-then-reverify
// pipeline, and classified repaired vs fallback; each repaired build is
// differentially checked against the un-repaired PDOM baseline. The
// campaign fails unless the post-repair fallback rate strictly improves
// on the pre-repair rate. -ledger appends the rates as a
// "diffhunt-repair" record for `perf ledger` gating.
//
// Exit status: 0 when every check passed and (with -matrix) every
// injected fault was detected as expected; 1 otherwise. Kernels whose
// baseline build or run fails — possible for structural mutants — are
// counted as skips, not findings: they indict the input, not the
// transform.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"

	"specrecon/internal/ccache"
	"specrecon/internal/corpus"
	"specrecon/internal/diffcheck"
	"specrecon/internal/simt"
)

func main() {
	var (
		n          = flag.Int("n", 500, "number of corpus applications to generate")
		seed       = flag.Uint64("seed", 42, "corpus generation seed")
		jobs       = flag.Int("j", 0, "parallel workers (0 = GOMAXPROCS)")
		matrix     = flag.Bool("matrix", false, "also run the fault-injection matrix and require every fault detected")
		repair     = flag.Bool("repair", false, "run the automated-repair campaign instead of the standard one (matrix + corpus fault plants through repair-then-reverify)")
		ledgerPath = flag.String("ledger", "", "with -repair, append the campaign record to this runs.jsonl ledger")
		mutate     = flag.Int("mutate", 0, "additionally check up to this many structural mutants per kernel")
		maxIssues  = flag.Int64("max-issues", 0, "per-run issue budget (0 = checker default)")
		repros     = flag.String("repros", "testdata/repros", "directory for minimized .sasm repros of findings")
		verbose    = flag.Bool("v", false, "print one line per kernel")
		useCache   = flag.Bool("compile-cache", false, "memoize baseline/speculative compilations across the campaign")
		cacheStats = flag.String("cache-stats", "", "write compile-cache hit/miss statistics as JSON to this file (\"-\" for stderr)")
		policy     = flag.String("policy", "maxgroup", "intra-warp group pick for both runs: maxgroup | minpc | roundrobin")
		sched      = flag.String("sched", "greedy", "warp scheduler for the speculative run: greedy | oldest | youngest | obe | random (cmd/schedhunt sweeps these)")
		schedSeed  = flag.Uint64("sched-seed", 0, "seed for -sched random")
		starveLim  = flag.Int64("starve-limit", 0, "arm the starvation monitor on the speculative run with this cycle budget (0 = off)")
	)
	flag.Parse()

	pol, err := simt.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diffhunt:", err)
		os.Exit(2)
	}
	sp, err := simt.ParseSchedPolicy(*sched)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diffhunt:", err)
		os.Exit(2)
	}
	schedOpts := diffcheck.ReproOpts{Policy: pol, Sched: sp, SchedSeed: *schedSeed, StarveLimit: *starveLim}

	var cache *ccache.Cache
	if *useCache {
		cache = ccache.New(0)
	}

	failures := 0
	if *matrix {
		failures += runMatrix(*verbose)
	}
	if *repair {
		failures += runRepairCampaign(*n, *seed, *jobs, *maxIssues, *repros, *verbose, cache, *ledgerPath)
	} else {
		failures += runCampaign(*n, *seed, *jobs, *mutate, *maxIssues, schedOpts, *repros, *verbose, cache)
	}

	if *cacheStats != "" {
		w := os.Stderr
		if *cacheStats != "-" {
			f, err := os.Create(*cacheStats)
			if err != nil {
				fmt.Fprintf(os.Stderr, "diffhunt: %v\n", err)
				os.Exit(2)
			}
			defer f.Close()
			w = f
		}
		if err := cache.WriteStatsJSON(w); err != nil {
			fmt.Fprintf(os.Stderr, "diffhunt: %v\n", err)
			os.Exit(2)
		}
	}
	if failures > 0 {
		os.Exit(1)
	}
}

// runMatrix evaluates the injection matrix and returns the number of
// faults that escaped or were caught by unexpected layers.
func runMatrix(verbose bool) int {
	bad := 0
	fmt.Println("fault-injection matrix:")
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
		fmt.Printf("  %-16s static=%-9s dynamic=%-9s %s\n", o.Fault.Name, static, dynamic, status)
		if verbose && o.StaticErr != nil {
			fmt.Printf("    %v\n", o.StaticErr)
		}
		if verbose && !o.Dynamic.OK {
			fmt.Printf("    %v\n", o.Dynamic.Err)
		}
	}
	return bad
}

type finding struct {
	kernel diffcheck.Kernel
	res    diffcheck.Result
}

// runCampaign checks every corpus kernel (plus mutants when requested)
// and returns the number of findings.
func runCampaign(n int, seed uint64, jobs, mutate int, maxIssues int64, schedOpts diffcheck.ReproOpts, reproDir string, verbose bool, cache *ccache.Cache) int {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	opts := schedOpts.Apply(diffcheck.Options{
		MaxIssues:    maxIssues,
		AutoAnnotate: true,
		Verify:       true,
		Cache:        cache,
	})

	apps := corpus.Generate(n, seed)
	type job struct {
		k      diffcheck.Kernel
		mutant bool
	}
	var jobsList []job
	for _, app := range apps {
		k := diffcheck.Kernel{
			Name: app.Name, Module: app.Module, Entry: app.Kernel,
			Threads: app.Threads, Memory: app.Memory, Seed: app.Seed,
		}
		jobsList = append(jobsList, job{k: k})
		for i, m := range diffcheck.Mutations(k) {
			if i >= mutate {
				break
			}
			m.Name = fmt.Sprintf("%s-mut%d", k.Name, i)
			jobsList = append(jobsList, job{k: m, mutant: true})
		}
	}

	var (
		mu       sync.Mutex
		findings []finding
		skips    int
		checked  int
	)
	var wg sync.WaitGroup
	ch := make(chan job)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				res := diffcheck.Check(j.k, opts)
				mu.Lock()
				checked++
				switch {
				case res.OK:
					if verbose {
						fmt.Printf("ok   %s\n", j.k.Name)
					}
				case res.Stage.BaselineFailure():
					// The kernel itself is broken (expected for some
					// mutants): not a speculation finding.
					skips++
					if verbose {
						fmt.Printf("skip %s: %v\n", j.k.Name, res)
					}
				default:
					findings = append(findings, finding{kernel: j.k, res: res})
					fmt.Printf("FAIL %s: %v\n", j.k.Name, res)
				}
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobsList {
		ch <- j
	}
	close(ch)
	wg.Wait()

	for _, f := range findings {
		small, res := diffcheck.Minimize(f.kernel, opts)
		path, err := diffcheck.WriteRepro(reproDir, small, opts, res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "diffhunt: writing repro for %s: %v\n", f.kernel.Name, err)
			continue
		}
		fmt.Printf("     repro: %s\n", path)
	}

	fmt.Printf("diffhunt: %d checked, %d ok, %d skipped, %d findings\n",
		checked, checked-skips-len(findings), skips, len(findings))
	return len(findings)
}
