// Package obs is the observability layer of the simulator: an
// nvprof-style profiler, a Perfetto trace exporter and a lane timeline,
// all fed by the generalized event stream of internal/simt
// (simt.Config.Events).
//
// The paper's evaluation is read off nvprof hardware counters — branch
// efficiency, warp execution efficiency, stall reasons — and DARM-style
// follow-ups motivate their transforms with per-branch divergence and
// per-region stall attribution. This package provides the same lens for
// the reproduction:
//
//   - Profile attributes issues, active lanes, attributed cycles and
//     stall cycles (memory and barrier, separately) to every static
//     instruction; taken/not-taken lane counts and a branch-efficiency
//     figure to every conditional branch; and wait events plus total
//     blocked cycles to every barrier register. Its hot path is a few
//     array increments into tables indexed by the decode-time dense PC
//     id, so a profiled run stays allocation-free per issue (the
//     steady-state allocation guard in internal/simt pins this).
//
//   - TraceRecorder folds the stream, as it arrives, into the records of
//     a Chrome trace-event file — per-warp tracks with block-residency
//     spans, per-barrier wait spans and divergence instants — and
//     WriteTrace writes them as JSON that opens directly in
//     ui.perfetto.dev. It keeps a 32-byte record for each span edge and
//     divergence (one event in six on RSBench) and every occupancy
//     sample it is sent, never the events themselves.
//
//   - Timeline draws one warp's issues as ASCII lane rows, the paper's
//     Figure 1 and 3(b) execution cartoons, with an active-lane
//     histogram.
//
// Attach either (or both, via simt.TeeSinks) to a launch:
//
//	p := obs.NewProfile(mod)
//	rec := obs.NewTraceRecorder()
//	res, err := simt.Run(mod, simt.Config{Events: simt.TeeSinks(p, rec)})
//
// Neither sink is buffered on the way: the simulator calls Events from
// the issue loop, on grid launches too, unless the launch shards its
// SMs over Workers > 1 goroutines — then each SM's events are held
// until the launch ends and replayed in SM order (the delivery rule at
// simt.Config.Events), and either sink renders the same bytes.
package obs
