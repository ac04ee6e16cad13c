package harness

import (
	"fmt"
	"io"

	"specrecon/internal/core"
	"specrecon/internal/ir"
	"specrecon/internal/obs"
	"specrecon/internal/simt"
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
// sample — so their single implicit SM shows up as SM 0. Each stream's
// per-SM aggregates are the summary table WriteOccupancySection prints.
func CollectOccupancy(cfg workloads.BuildConfig, stride int64, parallelism int) ([]WorkloadOccupancy, error) {
	if stride <= 0 {
		stride = DefaultSampleStride
	}
	ws := workloads.Annotated()
	return collect(parallelism, len(ws), func(i int) (WorkloadOccupancy, error) {
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
