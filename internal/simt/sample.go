package simt

// Occupancy/stall sampling: the simulator's analogue of a hardware
// performance-counter sampler (Nsight's SM occupancy and warp-stall
// attribution). When Config.SampleStride is positive, the wave loop
// records one Sample per stride of modeled cycles at the end of a
// pass over the resident warps: how many warps are resident, how
// many were eligible to issue (had a runnable lane group), how many
// actually issued this pass, and — for the stalled ones — whether they
// are blocked at convergence barriers/warpsync or at a ctabar workgroup
// barrier. Memory pressure is attributed separately: MemStallCycles is
// the cycles charged beyond base instruction latency (coalescing and
// cache-miss time) since the previous sample on the same SM, and a
// sample with Eligible == 0 is a "no-eligible" stall window (the SM had
// resident warps but nothing to issue).
//
// The hook sits in the one wave loop, so it sees every launch shape,
// warp scheduler and divergence model alike. A sink is attached wherever
// warps genuinely share a machine: on every SM of a grid launch, and on
// a flat launch that is one wave of all its warps (InterleaveWarps or a
// non-greedy Sched), reported as SM 0. A run-to-completion flat launch
// makes a wave of each warp; occupancy of one is meaningless, so it gets
// no sink and records nothing.
//
// Determinism and cost mirror the event stream (events.go): samples
// reach Config.Samples under the delivery rule stated at Config.Events;
// with sampling disabled the issue path pays one nil check per pass, and
// with it enabled the recording itself allocates nothing — a fixed-state
// sink such as obs.OccupancyStats keeps the 0-allocs/issue guarantee
// (pinned by the sampler cases of TestSteadyStateIssueAllocFree*).

// Sample is one occupancy/stall observation of one SM.
type Sample struct {
	// SM is the sampled SM's index (0 on flat launches).
	SM int32
	// Cycle is the SM-local modeled cycle count at sample time.
	Cycle int64
	// CycleDelta is Cycle minus the previous sample's Cycle on this SM
	// (the width of the window this sample summarizes).
	CycleDelta int64
	// Resident counts warps of the current wave still holding lanes
	// that have not exited.
	Resident int32
	// Eligible counts resident warps with at least one runnable lane
	// group; Resident - Eligible warps are stalled. A sample with
	// Eligible == 0 is a no-eligible window.
	Eligible int32
	// Issued counts warps that issued an instruction in the pass ending
	// at this sample.
	Issued int32
	// StallBarrier counts resident warps fully blocked at convergence
	// barriers (wait/waitn) or warpsync.
	StallBarrier int32
	// StallCTABar counts resident warps fully blocked at a ctabar
	// workgroup barrier (waiting on other warps of their CTA).
	StallCTABar int32
	// MemStallCycles is the cycles charged beyond base instruction
	// latency (memory transaction time) on this SM since the previous
	// sample.
	MemStallCycles int64
}

// SampleSink receives occupancy samples. On a Workers <= 1 launch it runs
// inside the wave loop and must not allocate if the caller relies on the
// 0-allocs/issue property.
type SampleSink interface {
	Sample(Sample)
}

// SampleSinkFunc adapts a function to a SampleSink.
type SampleSinkFunc func(Sample)

// Sample implements SampleSink.
func (f SampleSinkFunc) Sample(s Sample) { f(s) }

// TeeSampleSinks fans one sample stream out to several sinks in order.
func TeeSampleSinks(sinks ...SampleSink) SampleSink {
	var out []SampleSink
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return teeSampleSink(out)
}

type teeSampleSink []SampleSink

func (t teeSampleSink) Sample(s Sample) {
	for _, sink := range t {
		sink.Sample(s)
	}
}

// samplerEnabled reports whether this launch wants samples at all.
func (cfg *Config) samplerEnabled() bool {
	return cfg.SampleStride > 0 && cfg.Samples != nil
}

// samplePass is called once per pass over a wave. It records a sample
// when at least SampleStride cycles elapsed since the last one. The
// disabled-path cost is the nil check.
func (s *sim) samplePass(warps []*warpState, issued int) {
	if s.sampleSink == nil {
		return
	}
	if s.metrics.Cycles-s.lastSampleCycle < s.cfg.SampleStride {
		return
	}
	s.recordSample(warps, issued)
}

// recordSample classifies every resident warp and emits one Sample. It
// performs no heap allocation: the Sample is a value and the sink is
// responsible for storage. A warp whose group table is current and not
// empty is eligible without a look at its lanes — an entry is a running
// lane; only a stale or empty table (and every warp of the stack model,
// which keeps none) sends the classification to the lane statuses.
func (s *sim) recordSample(warps []*warpState, issued int) {
	smp := Sample{
		SM:     s.smIndex,
		Cycle:  s.metrics.Cycles,
		Issued: int32(issued),
	}
	for _, ws := range warps {
		if ws.done {
			continue
		}
		running := !ws.stale && ws.ngroups > 0
		var ctabar, barrier bool
		for l := 0; !running && l < len(ws.status); l++ {
			switch ws.status[l] {
			case laneRunning:
				running = true
			case laneCTAWaiting:
				ctabar = true
			case laneWaiting, laneSyncing:
				barrier = true
			}
		}
		if !running && !ctabar && !barrier {
			continue // every lane exited; tryStep just hasn't marked it done
		}
		smp.Resident++
		switch {
		case running:
			smp.Eligible++
		case ctabar:
			smp.StallCTABar++
		default:
			smp.StallBarrier++
		}
	}
	// A warp that issued its final instruction during this pass retired
	// before the sample; clamp so Issued never exceeds Resident and the
	// per-sample accounting stays internally consistent.
	if smp.Issued > smp.Resident {
		smp.Issued = smp.Resident
	}
	smp.CycleDelta = smp.Cycle - s.lastSampleCycle
	smp.MemStallCycles = s.memStallAcc - s.memStallSampled
	s.lastSampleCycle = smp.Cycle
	s.memStallSampled = s.memStallAcc
	s.sampleSink.Sample(smp)
}
