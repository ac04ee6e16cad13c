// Package cli is the command-line surface the binaries share, declared
// once: the exit contract, and the flag groups — launch shape, warp
// scheduling, compile cache, profiles, telemetry and run ledger — each
// registered by the binaries that have it, parsed into the values the
// simulator takes, started after parsing and finished on every exit
// path of run. A binary's main is
//
//	func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
//
// and its run registers its groups and own flags on an App, calls Parse,
// defers Close, and returns one of the statuses below.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"specrecon/internal/ccache"
	"specrecon/internal/simt"
	"specrecon/internal/telemetry"
	"specrecon/internal/workloads"
)

// The exit contract of every binary.
const (
	OK    = 0 // what was asked for was done and held
	Fail  = 1 // a finding, a failed check, a compile or run that failed
	Usage = 2 // a flag, a flag value or an input the command cannot use
)

// App is one invocation of a command: its flag set, its streams, and
// what its flag groups parse to.
type App struct {
	*flag.FlagSet
	Stdout, Stderr io.Writer

	// Launch is the launch shape (LaunchFlags, GridFlags) and, after
	// Parse, the scheduler selection (SchedFlags).
	Launch workloads.BuildConfig
	// StarveLimit and WallBudget arm the liveness monitors (LivenessFlags).
	StarveLimit int64
	WallBudget  time.Duration
	// Cache is the compile cache, nil unless -compile-cache or
	// -cache-stats asked for one (CacheFlags) or EnableCache was called;
	// a nil cache compiles directly.
	Cache *ccache.Cache
	// Reg is the metrics registry, nil unless a telemetry or ledger flag
	// was given.
	Reg *telemetry.Registry

	policy, sched                      string
	cacheOn                            bool
	cacheStats, cpuProfile, memProfile string
	telemetryJSON, ledger              string
	started                            time.Time
	finishers                          []func() error
}

// New returns the App of the command called name.
func New(name string, stdout, stderr io.Writer) *App {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &App{FlagSet: fs, Stdout: stdout, Stderr: stderr}
}

// GridFlags registers the grid shape.
func (a *App) GridFlags() {
	a.IntVar(&a.Launch.Grid, "grid", 0, "CTAs in a grid launch (0 = flat single-SM launch; overrides -threads)")
	a.IntVar(&a.Launch.CTASize, "ctasize", 0, "threads per CTA for -grid (0 = one warp)")
	a.IntVar(&a.Launch.SMs, "sms", 0, "streaming multiprocessors for -grid (0 = 1)")
}

// LaunchFlags registers the whole launch shape.
func (a *App) LaunchFlags() {
	a.IntVar(&a.Launch.Threads, "threads", 0, "thread count (0 = workload default)")
	a.Uint64Var(&a.Launch.Seed, "seed", 0, "seed (0 = workload default)")
	a.GridFlags()
	a.IntVar(&a.Launch.Workers, "workers", 0, "goroutines simulating SMs (0 = serial; results are identical)")
}

// SchedFlags registers the scheduler selection; Parse leaves it in
// Launch.Policy, Launch.Sched and Launch.SchedSeed.
func (a *App) SchedFlags() {
	a.StringVar(&a.policy, "policy", "maxgroup", "intra-warp group pick: maxgroup | minpc | roundrobin")
	a.StringVar(&a.sched, "sched", "greedy", "warp scheduler: greedy | oldest | youngest | obe | random")
	a.Uint64Var(&a.Launch.SchedSeed, "sched-seed", 0, "seed for -sched random")
}

// LivenessFlags registers the starvation monitor and the watchdog.
func (a *App) LivenessFlags() {
	a.Int64Var(&a.StarveLimit, "starve-limit", 0, "fail with a StarvationError when a runnable warp goes unissued this many cycles (0 = off)")
	a.DurationVar(&a.WallBudget, "wall-budget", 0, "fail with a WatchdogError when a run exceeds this wall-clock budget (0 = off)")
}

// CacheFlags registers the compile cache; asking for its statistics
// implies the cache.
func (a *App) CacheFlags() {
	a.BoolVar(&a.cacheOn, "compile-cache", false, "memoize compilations in a content-addressed compile cache")
	a.StringVar(&a.cacheStats, "cache-stats", "", "write compile-cache hit/miss statistics as JSON to this file (\"-\" for stderr); implies -compile-cache")
}

// ProfileFlags registers the pprof profiles of the command itself: the
// CPU profile covers Parse to Close, the heap profile is taken at Close.
func (a *App) ProfileFlags() {
	a.StringVar(&a.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	a.StringVar(&a.memProfile, "memprofile", "", "write a heap profile to this file")
}

// TelemetryJSONFlag registers the final metrics snapshot.
func (a *App) TelemetryJSONFlag() {
	a.StringVar(&a.telemetryJSON, "telemetry-json", "", "write the final telemetry snapshot as JSON to this file (\"-\" for stderr)")
}

// LedgerFlag registers the run ledger Record appends to.
func (a *App) LedgerFlag() {
	a.StringVar(&a.ledger, "ledger", "", "append a run record (wall time, cache hit rate, registry and run metrics) to this JSONL ledger")
}

// Parse parses args and starts what the registered groups were asked
// for. When done, run returns code: Usage after a flag, a value or a
// start-up failure (reported on Stderr), OK after -h.
func (a *App) Parse(args []string) (code int, done bool) {
	a.started = time.Now()
	if err := a.FlagSet.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return OK, true
		}
		return Usage, true
	}
	if err := a.start(); err != nil {
		a.Close(&code)
		return a.Fail(Usage, err), true
	}
	return OK, false
}

func (a *App) start() (err error) {
	if a.policy != "" {
		if a.Launch.Policy, err = simt.ParsePolicy(a.policy); err != nil {
			return err
		}
		if a.Launch.Sched, err = simt.ParseSchedPolicy(a.sched); err != nil {
			return err
		}
	}
	if a.memProfile != "" {
		// Written on the way out, after a GC, so it shows live memory.
		a.finishers = append(a.finishers, func() error {
			runtime.GC()
			return WriteTo(a.memProfile, a.Stderr, pprof.WriteHeapProfile)
		})
	}
	if a.cpuProfile != "" {
		f, err := os.Create(a.cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		a.finishers = append(a.finishers, func() error { pprof.StopCPUProfile(); return f.Close() })
	}
	if a.telemetryJSON != "" || a.ledger != "" {
		a.Reg = telemetry.New()
	}
	if a.cacheOn || a.cacheStats != "" {
		a.EnableCache()
	}
	if a.cacheStats != "" {
		a.finishers = append(a.finishers, func() error { return WriteTo(a.cacheStats, a.Stderr, a.Cache.WriteStatsJSON) })
	}
	if a.telemetryJSON != "" {
		a.finishers = append(a.finishers, func() error { return WriteTo(a.telemetryJSON, a.Stderr, a.Reg.WriteJSON) })
	}
	return nil
}

// EnableCache turns the compile cache on, as -compile-cache does.
func (a *App) EnableCache() {
	if a.Cache != nil {
		return
	}
	a.Cache = ccache.New(0)
	if a.Reg != nil {
		a.Cache.RegisterMetrics(a.Reg)
	}
}

// Close finishes what Parse started, last started first: the metrics
// snapshot, the cache statistics, the profiles. run defers
// it with the address of its named result, so every exit path finishes;
// a finisher that fails is reported and turns an OK status into Usage.
func (a *App) Close(code *int) {
	for i := len(a.finishers) - 1; i >= 0; i-- {
		if err := a.finishers[i](); err != nil {
			a.Fail(Usage, err)
			if *code == OK {
				*code = Usage
			}
		}
	}
	a.finishers = nil
}

// Fail reports err on Stderr under the command's name and returns code.
func (a *App) Fail(code int, err error) int {
	fmt.Fprintf(a.Stderr, "%s: %v\n", a.Name(), err)
	return code
}

// Record appends the run's ledger record when -ledger was given: the
// time, the git revision, config's fingerprint, and as metrics the
// registry's series, the run's own, wall_seconds since Parse and the
// cache's ccache_hit_rate.
func (a *App) Record(tool string, config any, metrics map[string]float64) error {
	if a.ledger == "" {
		return nil
	}
	rec := telemetry.RunRecord{
		Time:    telemetry.NowRFC3339(),
		Tool:    tool,
		GitRev:  telemetry.GitRev(),
		Config:  telemetry.Fingerprint(config),
		Metrics: a.Reg.LedgerMetrics(),
	}
	for name, v := range metrics {
		rec.Metrics[name] = v
	}
	rec.Metrics["wall_seconds"] = time.Since(a.started).Seconds()
	if s := a.Cache.Stats(); s.Hits+s.Misses > 0 {
		rec.Metrics["ccache_hit_rate"] = float64(s.Hits) / float64(s.Hits+s.Misses)
	}
	if err := telemetry.AppendRecord(a.ledger, rec); err != nil {
		return err
	}
	fmt.Fprintf(a.Stderr, "%s: appended run record (%d metrics) to %s\n", a.Name(), len(rec.Metrics), a.ledger)
	return nil
}

// WriteTo streams render into the file at path, or into dash when path
// is "-".
func WriteTo(path string, dash io.Writer, render func(io.Writer) error) error {
	if path == "-" {
		return render(dash)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
