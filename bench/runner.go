package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// limits are the floors of a run that do not depend on its length.
type limits struct {
	// setupRounds is how many times an untraced run sets its workload
	// up; setup_s is the fastest, so one slow page-in or a busy host
	// does not decide it.
	setupRounds int
	// minOps is the least number of timed ops, however long they take;
	// minTracedOps the same for the traced ops of a traced run.
	minOps, minTracedOps int
	// probeRounds caps how many rounds a layer probe runs.
	probeRounds int
}

// benchLimits are the limits of every run but the package's own tests.
var benchLimits = limits{setupRounds: 5, minOps: 12, minTracedOps: 3, probeRounds: 5}

// noisyDrift is the calibration drift above which a run's numbers are
// blamed on the machine before the program.
const noisyDrift = 0.05

// runOptions are the arguments of one run of one workload.
type runOptions struct {
	seed    uint64
	seconds float64
	traced  bool
	outDir  string
	limits
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is everything one run of one workload measured: the result
// line and what the full run and -compare need beside it.
type runRecord struct {
	resultLine

	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	// ResultDigest names the statistics every op of the run produced.
	ResultDigest string `json:"result_digest"`
	// TailPct is the highest percentile of op wall time with at least
	// ten samples beyond it, TailS its value and Samples the number of
	// timed ops: diagnostics, not gates.
	TailPct int     `json:"tail_pct"`
	TailS   float64 `json:"tail_s"`
	Samples int     `json:"samples"`
	// MedianS is the median op wall time, beside the fastest one that
	// op_wall_s reports: their gap is how disturbed the run was.
	MedianS float64 `json:"median_s"`
	// OpWalls are the wall times of the timed ops, in order.
	OpWalls []float64 `json:"op_walls_s,omitempty"`
	// CalibMs is how long a fixed integer spin took when the run began,
	// to hold against other runs on the same machine. CalibDrift is its
	// relative change by the end of the run; Noisy marks it above
	// noisyDrift.
	CalibMs    float64 `json:"calib_ms"`
	CalibDrift float64 `json:"calib_drift_frac"`
	Noisy      bool    `json:"noisy"`
	// Errors holds the first few op failures.
	Errors []string `json:"errors,omitempty"`
}

var spinSink uint64

// calibrate times a fixed pure-Go integer spin that touches no code of
// the repo, so a drift between two calls is the machine's.
func calibrate() time.Duration {
	best := time.Duration(1 << 62)
	for round := 0; round < 3; round++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink += x
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// cpuSeconds is the user plus system CPU time of the process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the high-water resident set of the process (Linux reports
// kilobytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// opCost is what one op cost the host.
type opCost struct {
	wall, cpu, allocMB, allocs float64
}

// run is the state of one run of one workload.
type run struct {
	runOptions
	rec    *runRecord
	inst   *instance
	digest string    // the first op's
	last   *opResult // kept alive for heap_live_mb
}

// do runs one op with the clock and the allocation counters around it
// and nothing else inside: the output check runs after they are read.
// A failed op returns ok false and contributes no cost.
func (r *run) do(tr *tracer) (cost opCost, ok bool) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	root := tr.begin("bench.op")
	t0 := time.Now()
	res, err := r.inst.op(tr)
	cost.wall = time.Since(t0).Seconds()
	tr.end(root)
	cost.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	cost.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	cost.allocs = float64(m1.Mallocs - m0.Mallocs)

	if err == nil && res.check != nil {
		err = res.check()
	}
	if err == nil && r.digest != "" && res.digest != r.digest {
		err = fmt.Errorf("op statistics digest %s differs from the first op's %s", res.digest, r.digest)
	}
	r.rec.Attempted++
	if err != nil {
		r.rec.Failed++
		if len(r.rec.Errors) < 5 {
			r.rec.Errors = append(r.rec.Errors, err.Error())
		}
		return cost, false
	}
	if r.digest == "" {
		r.digest = res.digest
	}
	r.last = res
	return cost, true
}

// setup builds the workload's inputs and oracle from the seed and runs
// one warm-up op, and returns how long that took.
func (r *run) setup(w workload) (float64, error) {
	t0 := time.Now()
	inst, err := w.setup(r.seed)
	if err != nil {
		return 0, err
	}
	r.inst, r.digest, r.last = inst, "", nil
	before := r.rec.Failed
	r.do(nil)
	if r.rec.Failed != before {
		return 0, fmt.Errorf("warm-up op failed: %s", r.rec.Errors[len(r.rec.Errors)-1])
	}
	r.rec.Attempted-- // the warm-up is set-up, not a measured op
	return time.Since(t0).Seconds(), nil
}

// runWorkload is one run: `bench -workload w -seed n -seconds s -trace t`.
// It prints the metrics by name with their units, then the result line.
func runWorkload(w workload, opts runOptions, stdout io.Writer) (*runRecord, error) {
	rec := &runRecord{Workload: w.name, Seed: opts.seed, Traced: opts.traced}
	r := &run{runOptions: opts, rec: rec}
	calib0 := calibrate()

	rounds := r.setupRounds
	if r.traced {
		rounds = 1 // setup_s is an end-to-end metric
	}
	var setups []float64
	for i := 0; i < rounds; i++ {
		s, err := r.setup(w)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, s)
	}

	var ms *metricSet
	var err error
	if r.traced {
		ms, err = r.tracedRun()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	} else {
		ms = r.timedRun()
		ms.set("setup_s", least(setups))
	}

	calib1 := calibrate()
	rec.CalibMs = float64(calib0) / 1e6
	rec.CalibDrift = math.Abs(float64(calib1)/float64(calib0) - 1)
	rec.Noisy = rec.CalibDrift > noisyDrift
	if r.traced {
		ms.set("bench.calib_drift_frac", rec.CalibDrift)
		ms.set("bench.peak_rss_mb", peakRSSMB())
	}
	if miss := ms.missing(); len(miss) > 0 {
		return nil, fmt.Errorf("%s: no value for %v", w.name, miss)
	}
	rec.Metrics = ms.values
	rec.ResultDigest = r.digest
	rec.Correct = rec.Failed == 0

	printRecord(stdout, rec, ms.defs)
	if err := writeJSON(filepath.Join(r.outDir, recordFile(w.name, r.traced)), rec); err != nil {
		return nil, err
	}
	line, err := json.Marshal(rec.resultLine)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return rec, nil
}

// timedRun issues ops back to back from one goroutine for the given
// time, tracing off, and returns the end-to-end metrics but setup_s.
func (r *run) timedRun() *metricSet {
	// Preallocated, so heap_live_mb does not depend on the op count.
	const maxOps = 4096
	walls, cpus := make([]float64, 0, maxOps), make([]float64, 0, maxOps)
	var allocMB, allocs float64
	start := time.Now()
	for len(walls) < r.minOps || (time.Since(start).Seconds() < r.seconds && len(walls) < maxOps) {
		cost, ok := r.do(nil)
		if !ok {
			if r.rec.Failed >= r.minOps {
				break // nothing works; do not spin until the clock runs out
			}
			continue
		}
		walls, cpus = append(walls, cost.wall), append(cpus, cost.cpu)
		allocMB += cost.allocMB
		allocs += cost.allocs
	}
	n := float64(len(walls))
	if n == 0 {
		n = 1
	}
	r.rec.Samples = len(walls)
	r.rec.TailPct, r.rec.TailS = tail(walls)
	r.rec.MedianS = median(walls)
	r.rec.OpWalls = walls

	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(r.last)

	ms := newMetricSet(endToEnd)
	ms.set("op_wall_s", least(walls))
	ms.set("cpu_s_per_op", least(cpus))
	ms.set("alloc_mb_per_op", allocMB/n)
	ms.set("allocs_per_op", allocs/n)
	ms.set("heap_live_mb", float64(m.HeapAlloc)/1e6)
	return ms
}

// tracedRun alternates untraced and traced ops for half the given time,
// then runs the layer probes, writes the trace file and returns the
// per-layer metrics.
func (r *run) tracedRun() (*metricSet, error) {
	tr := newTracer(1 << 16)
	var plain, traced, coverage []float64
	var sim simTotals
	start := time.Now()
	for len(traced) < r.minTracedOps || time.Since(start).Seconds() < r.seconds/2 {
		if r.rec.Failed >= r.minOps {
			break
		}
		if cost, ok := r.do(nil); ok {
			plain = append(plain, cost.wall)
		}
		tr.op++
		first := len(tr.spans)
		cost, ok := r.do(tr)
		if !ok {
			continue
		}
		traced = append(traced, cost.wall)
		root := tr.spans[first]
		coverage = append(coverage, 1-float64(selfTimes(tr.spans[first:])[0])/float64(root.end-root.start))
		sim = r.last.sim
		if r.inst.replay != nil {
			id := tr.begin("bench.replay")
			s, err := r.inst.replay(tr)
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
			sim = s
		}
	}
	r.rec.Samples = len(plain)
	r.rec.TailPct, r.rec.TailS = tail(plain)
	r.rec.MedianS = median(plain)

	ms := newMetricSet(perLayer)
	ms.set("bench.op_wall_tail_s", r.rec.TailS)
	ms.set("bench.op_samples", float64(len(plain)))
	overhead := 0.0
	if m := least(plain); m > 0 {
		overhead = least(traced)/m - 1
	}
	ms.set("bench.trace_overhead_frac", overhead)
	ms.set("bench.trace_coverage", mean(coverage))
	simMetrics(ms, totalsByName(tr.spans), len(traced), sim)

	tr.op = -1 // probe spans belong to no op
	if err := runProbes(tr, r.seed, r.probeRounds, ms); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return nil, err
	}
	return ms, writeChrome(filepath.Join(r.outDir, "trace."+r.rec.Workload+".json"), tr.spans)
}

// simMetrics fills the per-workload simulator metrics from the spans of
// the traced ops and the simulated statistics of one op.
func simMetrics(ms *metricSet, spans map[string]spanTotal, ops int, sim simTotals) {
	newMachine, runs := spans["simt.NewMachine"], spans["simt.Machine.Run"]
	perCall := func(t spanTotal, scale float64) float64 {
		if t.calls == 0 {
			return 0
		}
		return float64(t.self) / float64(t.calls) / scale
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	ms.set("simt.newmachine_us", perCall(newMachine, 1e3))
	runNs := ratio(float64(runs.self), float64(ops)) // issue-loop time of one op
	ms.set("simt.run_s", runNs/1e9)
	ms.set("simt.issue_ns", ratio(runNs, float64(sim.Issues)))
	ms.set("simt.sim_mcycles_per_s", ratio(float64(sim.Cycles)/1e6, runNs/1e9))
	ms.set("simt.sim_issues", float64(sim.Issues))
	ms.set("simt.sim_cycles", float64(sim.Cycles))
	ms.set("simt.active_lanes", float64(sim.ActiveLanes))
	ms.set("simt.simt_eff_pct", 100*ratio(float64(sim.ActiveLanes), float64(sim.Issues)*32))
	ms.set("simt.mem_transactions", float64(sim.MemTransactions))
	ms.set("simt.cache_hit_pct", 100*ratio(float64(sim.CacheHits), float64(sim.CacheHits+sim.CacheMisses)))
	ms.set("simt.barrier_waits", float64(sim.BarrierWaits))
}

func recordFile(workload string, traced bool) string {
	if traced {
		return "run." + workload + ".layers.json"
	}
	return "run." + workload + ".e2e.json"
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printRecord prints every metric of a run by name with its unit.
func printRecord(w io.Writer, rec *runRecord, defs []metricDef) {
	mode := "end-to-end, tracing off"
	if rec.Traced {
		mode = "per-layer, traced"
	}
	noisy := ""
	if rec.Noisy {
		noisy = "  NOISY (blame the machine first)"
	}
	fmt.Fprintf(w, "workload %s seed %d (%s): ops %d, ops_failed %d, result_digest %s, calibration spin %.1f ms, drift %.3f%s\n",
		rec.Workload, rec.Seed, mode, rec.Attempted, rec.Failed, rec.ResultDigest, rec.CalibMs, rec.CalibDrift, noisy)
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "  failed op: %s\n", e)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.name, rec.Metrics[d.name].Value, d.unit)
	}
	if rec.TailPct > 0 {
		fmt.Fprintf(w, "  op wall median %.6g s, p%d %.6g s over %d ops (diagnostics: ops are batch jobs, so how far they sit above the fastest op measures the machine)\n",
			rec.MedianS, rec.TailPct, rec.TailS, rec.Samples)
	}
}
