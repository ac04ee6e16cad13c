package harness

import (
	"errors"
	"fmt"
	"io"
	"strconv"

	"specrecon/internal/core"
	"specrecon/internal/ir"
	"specrecon/internal/obs"
	"specrecon/internal/simt"
	"specrecon/internal/workloads"
)

// Scheduler sensitivity: the speculative-reconvergence claims must not
// hinge on the reference greedy-converge warp scheduler. This driver
// sweeps warp-scheduling policies × soft-barrier thresholds for one
// workload, checks every point's final memory against the greedy
// baseline, arms the starvation monitor so a schedule-dependent hang
// surfaces as a typed liveness failure instead of a stuck sweep, and
// samples each point's occupancy: WriteSchedSensitivity's rows carry its
// resident warps, issue efficiency and starvation outcome per policy.

// SchedSweepStarveLimit is the starvation budget armed on every
// policy-scheduled sweep run: generous enough that no fair schedule of
// a terminating kernel trips it, tight enough to fail long before the
// checker's issue budget.
const SchedSweepStarveLimit = 1 << 21

// SchedPoint is one (policy, threshold) cell of the scheduler
// sensitivity grid.
type SchedPoint struct {
	Policy    simt.SchedPolicy
	Threshold int
	Eff       float64
	Speedup   float64 // greedy-baseline cycles / this point's cycles
	Cycles    int64
	// AvgResident/IssueEff aggregate the occupancy sampler over the run
	// (all SMs).
	AvgResident float64
	IssueEff    float64
	// Starved is set when the point failed with a StarvationError
	// instead of completing; Err carries the message. A starving policy
	// is a reportable property of the schedule, not a sweep abort.
	Starved bool
	Err     string
}

// SchedSensitivity sweeps policies × thresholds for the named workload.
// The baseline (greedy scheduler, PDOM build) is compiled and run once;
// every point's final memory must match it — a mismatch is a
// schedule-dependence finding and fails the sweep. Liveness failures
// (starvation under an unfair policy) are recorded on the point.
// Results are keyed by policy name in the given policy order.
func SchedSensitivity(name string, cfg workloads.BuildConfig, policies []simt.SchedPolicy, thresholds []int, parallelism int) (map[string][]SchedPoint, error) {
	w, err := workloads.Get(name)
	if err != nil {
		return nil, err
	}
	inst := w.Build(cfg)
	_, base, err := Run(inst, core.BaselineOptions())
	if err != nil {
		return nil, err
	}
	if err := ir.VerifyModule(inst.Module); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	points := make([]SchedPoint, len(policies)*len(thresholds))
	err = forEach(parallelism, len(points), func(i int) error {
		pol := policies[i/len(thresholds)]
		thr := thresholds[i%len(thresholds)]
		specOpts := core.SpecReconOptions()
		specOpts.ThresholdOverride = thr
		specOpts.AssumeVerified = true
		rec := obs.NewOccupancyRecorder()
		pt := SchedPoint{Policy: pol, Threshold: thr}
		_, res, err := launch(inst, inst.Module, specOpts, false, func(_ *ir.Module, runCfg simt.Config) simt.Config {
			runCfg.Sched = pol
			runCfg.StarveLimit = SchedSweepStarveLimit
			runCfg.SampleStride = DefaultSampleStride
			runCfg.Samples = rec
			if runCfg.Grid == 0 && pol == simt.SchedGreedyConverge {
				// A run-to-completion launch's waves of one warp are not
				// sampled; a non-greedy policy already shares one wave.
				runCfg.InterleaveWarps = true
			}
			return runCfg
		})
		if err != nil {
			var se *simt.StarvationError
			if errors.As(err, &se) {
				pt.Starved = true
				pt.Err = err.Error()
				points[i] = pt
				return nil
			}
			return fmt.Errorf("policy %s threshold %d: %w", pol, thr, err)
		}
		if err := sameResults(base, res); err != nil {
			return fmt.Errorf("policy %s threshold %d: schedule-dependent result: %w", pol, thr, err)
		}
		pt.Eff = res.Metrics.SIMTEfficiency()
		pt.Speedup = float64(base.Metrics.Cycles) / float64(res.Metrics.Cycles)
		pt.Cycles = res.Metrics.Cycles
		var agg obs.OccupancyStats
		for _, o := range rec.PerSM() {
			pt.AvgResident += o.AvgResident()
			agg.Merge(&o)
		}
		pt.IssueEff = agg.IssueEfficiency()
		points[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make(map[string][]SchedPoint, len(policies))
	for pi, pol := range policies {
		out[pol.String()] = points[pi*len(thresholds) : (pi+1)*len(thresholds) : (pi+1)*len(thresholds)]
	}
	return out, nil
}

// WriteSchedSensitivity renders the sweep as one markdown table per
// policy, in the given policy order.
func WriteSchedSensitivity(out io.Writer, name string, policies []simt.SchedPolicy, grid map[string][]SchedPoint) {
	fmt.Fprintf(out, "## Scheduler sensitivity: %s\n\n", name)
	fmt.Fprintln(out, "Soft-barrier threshold sweep under each warp-scheduling policy; every")
	fmt.Fprintln(out, "point's final memory matches the greedy baseline (checked).")
	fmt.Fprintln(out)
	for _, pol := range policies {
		rows := grid[pol.String()]
		if rows == nil {
			continue
		}
		fmt.Fprintf(out, "### policy %s\n\n", pol)
		fmt.Fprintln(out, "| threshold | simt eff | speedup | avg resident | issue eff | outcome |")
		fmt.Fprintln(out, "|---:|---:|---:|---:|---:|:---|")
		for _, r := range rows {
			outcome := "ok"
			if r.Starved {
				outcome = "STARVED"
			}
			fmt.Fprintf(out, "| %d | %.1f%% | %.2fx | %.2f | %s | %s |\n",
				r.Threshold, 100*r.Eff, r.Speedup, r.AvgResident,
				strconv.FormatFloat(r.IssueEff, 'f', 3, 64), outcome)
		}
		fmt.Fprintln(out)
	}
}
