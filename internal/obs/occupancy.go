package obs

import (
	"fmt"
	"io"

	"specrecon/internal/simt"
)

// Occupancy observers over the simulator's per-SM occupancy/stall
// sampler (simt.Sample). Two sinks with different cost contracts:
//
//   - OccupancyStats is a fixed-size aggregate whose Sample method only
//     adds into its fields — with one on simt.Config.Samples the
//     0-allocs/issue property holds with sampling enabled (the sampler
//     cases of TestSteadyStateIssueAllocFree* pin this).
//   - OccupancyRecorder keeps every sample for timelines and the
//     Perfetto counter tracks; like TraceRecorder it keeps them in a
//     simt.Log — 56 bytes a sample, allocated a chunk at a time and never
//     copied — so use it for runs you intend to look at.

// OccupancyStats aggregates samples into per-window sums. The zero
// value is ready to use. It implements simt.SampleSink.
type OccupancyStats struct {
	// Samples is the number of samples aggregated.
	Samples int64
	// ResidentSum / EligibleSum / IssuedSum accumulate the respective
	// warp counts over samples.
	ResidentSum int64
	EligibleSum int64
	IssuedSum   int64
	// StallBarrierSum / StallCTABarSum accumulate warps stalled at
	// convergence barriers (and warpsync) / ctabar workgroup barriers.
	StallBarrierSum int64
	StallCTABarSum  int64
	// NoEligible counts samples whose window had resident warps but
	// none eligible — the SM had nothing to issue.
	NoEligible int64
	// MemStallCycles totals cycles charged beyond base latency.
	MemStallCycles int64
	// LastCycle is the latest sample's cycle seen.
	LastCycle int64
}

// Sample implements simt.SampleSink with fixed-field additions only (no
// allocation, ever).
func (o *OccupancyStats) Sample(s simt.Sample) {
	o.Samples++
	o.ResidentSum += int64(s.Resident)
	o.EligibleSum += int64(s.Eligible)
	o.IssuedSum += int64(s.Issued)
	o.StallBarrierSum += int64(s.StallBarrier)
	o.StallCTABarSum += int64(s.StallCTABar)
	if s.Resident > 0 && s.Eligible == 0 {
		o.NoEligible++
	}
	o.MemStallCycles += s.MemStallCycles
	if s.Cycle > o.LastCycle {
		o.LastCycle = s.Cycle
	}
}

// Merge adds p's sums into o.
func (o *OccupancyStats) Merge(p *OccupancyStats) {
	o.Samples += p.Samples
	o.ResidentSum += p.ResidentSum
	o.EligibleSum += p.EligibleSum
	o.IssuedSum += p.IssuedSum
	o.StallBarrierSum += p.StallBarrierSum
	o.StallCTABarSum += p.StallCTABarSum
	o.NoEligible += p.NoEligible
	o.MemStallCycles += p.MemStallCycles
	if p.LastCycle > o.LastCycle {
		o.LastCycle = p.LastCycle
	}
}

func (o *OccupancyStats) avg(sum int64) float64 {
	if o.Samples == 0 {
		return 0
	}
	return float64(sum) / float64(o.Samples)
}

// AvgResident returns mean resident warps per sample.
func (o *OccupancyStats) AvgResident() float64 { return o.avg(o.ResidentSum) }

// AvgEligible returns mean eligible warps per sample.
func (o *OccupancyStats) AvgEligible() float64 { return o.avg(o.EligibleSum) }

// AvgIssued returns mean issuing warps per sample.
func (o *OccupancyStats) AvgIssued() float64 { return o.avg(o.IssuedSum) }

// stallFrac returns sum as a fraction of resident warp-samples.
func (o *OccupancyStats) stallFrac(sum int64) float64 {
	if o.ResidentSum == 0 {
		return 0
	}
	return float64(sum) / float64(o.ResidentSum)
}

// StallBarrierFrac returns the fraction of resident warp-samples
// stalled at convergence barriers or warpsync.
func (o *OccupancyStats) StallBarrierFrac() float64 { return o.stallFrac(o.StallBarrierSum) }

// StallCTABarFrac returns the fraction of resident warp-samples stalled
// at ctabar workgroup barriers.
func (o *OccupancyStats) StallCTABarFrac() float64 { return o.stallFrac(o.StallCTABarSum) }

// NoEligibleFrac returns the fraction of samples with resident warps
// but nothing eligible to issue.
func (o *OccupancyStats) NoEligibleFrac() float64 {
	if o.Samples == 0 {
		return 0
	}
	return float64(o.NoEligible) / float64(o.Samples)
}

// IssueEfficiency returns issued warps as a fraction of resident warps
// over the aggregated windows, in [0,1] — the sampler's analogue of SM
// issue-slot utilization.
func (o *OccupancyStats) IssueEfficiency() float64 { return o.stallFrac(o.IssuedSum) }

// OccupancyRecorder keeps every sample, in arrival order (implements
// simt.SampleSink; attach via simt.Config.Samples for deterministic
// SM-ordered replay), and notes the largest SM index and the last cycle
// as the samples arrive, so every reader below is one walk of the log.
type OccupancyRecorder struct {
	samples  simt.Log[simt.Sample]
	maxSM    int32
	endCycle int64
}

// NewOccupancyRecorder returns an empty recorder.
func NewOccupancyRecorder() *OccupancyRecorder { return &OccupancyRecorder{} }

// Sample implements simt.SampleSink.
func (r *OccupancyRecorder) Sample(s simt.Sample) {
	r.maxSM = max(r.maxSM, s.SM)
	r.endCycle = max(r.endCycle, s.Cycle)
	r.samples.Append(s)
}

// Len returns the number of recorded samples.
func (r *OccupancyRecorder) Len() int { return r.samples.Len() }

// Each calls visit with every recorded sample, in arrival order; the
// pointer is into the recorder's log and must not be written through.
func (r *OccupancyRecorder) Each(visit func(*simt.Sample)) { r.samples.Each(visit) }

// Stats aggregates every recorded sample.
func (r *OccupancyRecorder) Stats() OccupancyStats {
	var o OccupancyStats
	r.Each(func(s *simt.Sample) { o.Sample(*s) })
	return o
}

// PerSM aggregates the samples per SM, indexed by SM (length = max SM
// index + 1; nil when nothing was recorded).
func (r *OccupancyRecorder) PerSM() []OccupancyStats {
	if r.Len() == 0 {
		return nil
	}
	out := make([]OccupancyStats, r.maxSM+1)
	r.Each(func(s *simt.Sample) { out[s.SM].Sample(*s) })
	return out
}

// timelineBuckets is the column count of the WriteMarkdown sparkline.
const timelineBuckets = 48

// WriteMarkdown renders the occupancy timeline section: one summary row
// per SM, then a per-SM issue-activity strip over time where each
// column is a cycle bucket and its digit is round(9 × issued/resident)
// — 9 means every resident warp issued throughout the bucket, 0 means
// the SM sat stalled.
func (r *OccupancyRecorder) WriteMarkdown(w io.Writer) error {
	per := r.PerSM()
	if per == nil {
		_, err := fmt.Fprintf(w, "no occupancy samples recorded (set a sample stride on a grid or interleaved launch)\n")
		return err
	}
	fmt.Fprintf(w, "| sm | samples | avg resident | avg eligible | avg issued | issue eff | barrier stall | ctabar stall | no-eligible | mem-stall cycles |\n")
	fmt.Fprintf(w, "|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n")
	for sm := range per {
		o := &per[sm]
		if o.Samples == 0 {
			continue
		}
		fmt.Fprintf(w, "| %d | %d | %.1f | %.1f | %.1f | %.0f%% | %.1f%% | %.1f%% | %.1f%% | %d |\n",
			sm, o.Samples, o.AvgResident(), o.AvgEligible(), o.AvgIssued(),
			100*o.IssueEfficiency(), 100*o.StallBarrierFrac(), 100*o.StallCTABarFrac(),
			100*o.NoEligibleFrac(), o.MemStallCycles)
	}
	if r.endCycle == 0 {
		return nil
	}
	fmt.Fprintf(w, "\nIssue activity over time (columns = cycle buckets of %d cycles; digit = issued/resident, 0–9):\n\n```\n",
		(r.endCycle+timelineBuckets-1)/timelineBuckets)
	// Every SM's strip is filled in one more walk of the samples.
	strips := make([]struct{ issued, resident [timelineBuckets]int64 }, len(per))
	r.Each(func(s *simt.Sample) {
		b := min(max(int((s.Cycle-1)*timelineBuckets/r.endCycle), 0), timelineBuckets-1)
		strips[s.SM].issued[b] += int64(s.Issued)
		strips[s.SM].resident[b] += int64(s.Resident)
	})
	for sm := range per {
		if per[sm].Samples == 0 {
			continue
		}
		issued, resident := &strips[sm].issued, &strips[sm].resident
		fmt.Fprintf(w, "sm %2d |", sm)
		for b := 0; b < timelineBuckets; b++ {
			switch {
			case resident[b] == 0:
				fmt.Fprint(w, ".")
			default:
				d := (9*issued[b] + resident[b]/2) / resident[b]
				if d > 9 {
					d = 9
				}
				fmt.Fprintf(w, "%d", d)
			}
		}
		fmt.Fprintf(w, "|\n")
	}
	_, err := fmt.Fprintf(w, "```\n")
	return err
}
