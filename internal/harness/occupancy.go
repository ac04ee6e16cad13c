package harness

import (
	"fmt"
	"io"
	"strconv"

	"specrecon/internal/core"
	"specrecon/internal/ir"
	"specrecon/internal/obs"
	"specrecon/internal/simt"
	"specrecon/internal/telemetry"
	"specrecon/internal/workloads"
)

// WorkloadOccupancy holds one annotated workload's SM occupancy sample
// stream for the speculative-reconvergence build.
type WorkloadOccupancy struct {
	Name string
	Rec  *obs.OccupancyRecorder
}

// DefaultSampleStride is the cycle stride occupancy collection samples
// at when the caller passes a non-positive stride: coarse enough to
// stay off any hot path, fine enough that the 48-bucket timeline strip
// has several samples per column on every workload in the repo.
const DefaultSampleStride = 64

// CollectOccupancy runs every annotated workload's spec build with the
// per-SM occupancy/stall sampler attached and returns the recorded
// streams. Flat workloads are run under InterleaveWarps — a
// run-to-completion launch's waves of one warp have no occupancy to
// sample — so their single implicit SM shows up as SM 0. When a telemetry registry is
// installed (UseTelemetry), the per-SM aggregates are also published as
// simt_sm_* gauges labeled by workload and SM.
func CollectOccupancy(cfg workloads.BuildConfig, stride int64, parallelism int) ([]WorkloadOccupancy, error) {
	if stride <= 0 {
		stride = DefaultSampleStride
	}
	ws := workloads.Annotated()
	out, err := collect("occupancy", parallelism, len(ws), func(i int) (WorkloadOccupancy, error) {
		inst := ws[i].Build(cfg)
		rec := obs.NewOccupancyRecorder()
		_, _, err := launch(inst, inst.Module, core.SpecReconOptions(), false, func(_ *ir.Module, runCfg simt.Config) simt.Config {
			if runCfg.Grid == 0 {
				runCfg.InterleaveWarps = true
			}
			runCfg.SampleStride = stride
			runCfg.Samples = rec
			return runCfg
		})
		return WorkloadOccupancy{Name: ws[i].Name, Rec: rec}, err
	})
	if err != nil {
		return nil, err
	}
	if reg := Telemetry(); reg != nil {
		for _, wo := range out {
			PublishOccupancy(reg, wo.Name, wo.Rec.PerSM())
		}
	}
	return out, nil
}

// PublishOccupancy sets the per-SM occupancy/stall gauges for one
// workload's aggregated sample stream on reg: average resident warps,
// issue efficiency, the barrier/ctabar stall fractions, the no-eligible
// fraction and the accumulated mem-stall cycles, each labeled
// {workload, sm}.
func PublishOccupancy(reg *telemetry.Registry, workload string, per []obs.OccupancyStats) {
	resident := reg.Gauge("simt_sm_avg_resident",
		"Mean resident warps per occupancy sample.", "workload", "sm")
	eff := reg.Gauge("simt_sm_issue_efficiency",
		"Issued warps as a fraction of resident warp-samples.", "workload", "sm")
	barrier := reg.Gauge("simt_sm_stall_barrier_frac",
		"Fraction of resident warp-samples stalled at convergence barriers or warpsync.", "workload", "sm")
	ctabar := reg.Gauge("simt_sm_stall_ctabar_frac",
		"Fraction of resident warp-samples stalled at ctabar workgroup barriers.", "workload", "sm")
	noelig := reg.Gauge("simt_sm_no_eligible_frac",
		"Fraction of samples with resident warps but nothing eligible to issue.", "workload", "sm")
	memStall := reg.Gauge("simt_sm_mem_stall_cycles",
		"Cycles charged beyond base instruction latency in the sampled windows.", "workload", "sm")
	for sm := range per {
		o := &per[sm]
		if o.Samples == 0 {
			continue
		}
		l := strconv.Itoa(sm)
		resident.With(workload, l).Set(o.AvgResident())
		eff.With(workload, l).Set(o.IssueEfficiency())
		barrier.With(workload, l).Set(o.StallBarrierFrac())
		ctabar.With(workload, l).Set(o.StallCTABarFrac())
		noelig.With(workload, l).Set(o.NoEligibleFrac())
		memStall.With(workload, l).Set(float64(o.MemStallCycles))
	}
}

// WriteOccupancySection renders the SM occupancy-timeline section of
// the markdown report: one summary table and issue-activity strip per
// workload (obs.OccupancyRecorder.WriteMarkdown).
func WriteOccupancySection(out io.Writer, occs []WorkloadOccupancy) error {
	fmt.Fprintln(out, "## SM occupancy and stall attribution")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "Sampled per-SM warp state on the spec build: resident vs eligible vs")
	fmt.Fprintln(out, "issuing warps, with stalls attributed to convergence barriers, ctabar")
	fmt.Fprintln(out, "workgroup barriers and memory latency.")
	fmt.Fprintln(out)
	for _, wo := range occs {
		fmt.Fprintf(out, "### %s\n\n", wo.Name)
		if err := wo.Rec.WriteMarkdown(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}
