package simt_test

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"specrecon/internal/core"
	"specrecon/internal/ir"
	"specrecon/internal/obs"
	"specrecon/internal/simt"
	"specrecon/internal/workloads"
)

// rsbenchLaunch builds RSBench at shape, compiles it speculatively and
// returns the module with the launch configuration of that build.
func rsbenchLaunch(t *testing.T, shape workloads.BuildConfig) (*ir.Module, simt.Config) {
	t.Helper()
	w, err := workloads.Get("rsbench")
	if err != nil {
		t.Fatal(err)
	}
	inst := w.Build(shape)
	comp, err := core.Compile(inst.Module, core.SpecReconOptions())
	if err != nil {
		t.Fatal(err)
	}
	return comp.Module, simt.Config{
		Kernel: inst.Kernel, Threads: inst.Threads, Seed: inst.Seed, Memory: inst.Memory, Strict: true,
		Grid: inst.Grid, CTASize: inst.CTASize, SMs: inst.SMs,
	}
}

// TestSinksDoNotRetainEvent holds every sink in the repository to the
// EventSink contract: the Event it is shown belongs to the caller and is
// overwritten as soon as the call returns. The recorded RSBench stream is
// delivered twice to the profiler, the trace recorder, the lane timeline
// and a replay buffer — each on its own, and all behind one TeeSinks —
// once from a fresh Event per call that nothing touches afterwards, and
// once from a single slot the caller fills before each call and
// overwrites with garbage after it. A sink that kept the pointer, or
// read through it later, renders something else the second time.
func TestSinksDoNotRetainEvent(t *testing.T) {
	mod, cfg := rsbenchLaunch(t, workloads.BuildConfig{})
	var events []simt.Event
	cfg.Events = simt.SinkFunc(func(ev simt.Event) { events = append(events, ev) })
	if _, err := simt.Run(mod, cfg); err != nil {
		t.Fatal(err)
	}
	garbage := simt.Event{
		Kind: simt.EvCTABarRelease, Bar: 9, Warp: 1 << 20, SM: 77, CTA: 78, PC: 1 << 20, Fn: 79, Blk: 80, Ins: 81,
		FnName: "garbage", BlockName: "garbage", Issue: -1, Cycle: -2, Cost: -3, Mask: 0xdeadbeef, Aux: 0xfeedface,
	}

	type rendering struct {
		profile, trace []byte
		timeline       string
		replayed       []simt.Event
	}
	deliver := func(tee, reuse bool) rendering {
		profile, trace, timeline, buffer := obs.NewProfile(mod), obs.NewTraceRecorder(), obs.NewTimeline(0), &simt.ReplayBuffer{}
		sinks := []simt.EventSink{profile, trace, timeline, buffer}
		if tee {
			sinks = []simt.EventSink{simt.TeeSinks(sinks...)}
		}
		var slot simt.Event
		for i := range events {
			for _, sink := range sinks {
				if !reuse {
					own := events[i]
					sink.Event(&own)
					continue
				}
				slot = events[i]
				sink.Event(&slot)
				slot = garbage
			}
		}
		var r rendering
		var buf bytes.Buffer
		if err := profile.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		r.profile = bytes.Clone(buf.Bytes())
		buf.Reset()
		if err := trace.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		r.trace = buf.Bytes()
		r.timeline = timeline.Render(0) + timeline.OccupancyHistogram()
		buffer.Replay(simt.SinkFunc(func(ev simt.Event) { r.replayed = append(r.replayed, ev) }))
		return r
	}

	want := deliver(false, false)
	if !reflect.DeepEqual(want.replayed, events) {
		t.Fatalf("the replay buffer returned %d events of the %d it was sent, or other ones", len(want.replayed), len(events))
	}
	if len(want.profile) == 0 || len(want.trace) == 0 || len(want.timeline) == 0 {
		t.Fatal("a sink rendered nothing")
	}
	for _, tee := range []bool{false, true} {
		got := deliver(tee, true)
		for _, c := range []struct {
			what      string
			got, want any
		}{
			{"profile JSON", got.profile, want.profile},
			{"trace JSON", got.trace, want.trace},
			{"timeline text", got.timeline, want.timeline},
			{"replayed stream", got.replayed, want.replayed},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Errorf("tee=%v: the %s differs once the caller overwrites its Event after every call", tee, c.what)
			}
		}
	}
}

// countSink counts events and allocates nothing.
type countSink struct{ n int }

func (c *countSink) Event(*simt.Event) { c.n++ }

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReplayBuffersAllocateWhatTheyHold prices the per-SM replay buffers
// of a Workers > 1 launch into launch-wide sinks: over the same launch
// with Workers 1, which delivers in place and buffers nothing, the
// sharded launch may allocate the bytes of the two streams it holds until
// the replay, a quarter more, and one capped chunk per buffer — where
// buffers grown by append allocated about five times the streams.
func TestReplayBuffersAllocateWhatTheyHold(t *testing.T) {
	mod, cfg := rsbenchLaunch(t, workloads.BuildConfig{Grid: 4, CTASize: 2 * ir.WarpWidth, SMs: 2})
	cfg.SampleStride = 16
	var events countSink
	var samples obs.OccupancyStats
	cfg.Events, cfg.Samples = &events, &samples
	launch := func(workers int) uint64 {
		cfg.Workers = workers
		return allocated(func() {
			if _, err := simt.RunFresh(mod, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	serial := launch(1)
	held := uint64(events.n)*uint64(unsafe.Sizeof(simt.Event{})) + uint64(samples.Samples)*uint64(unsafe.Sizeof(simt.Sample{}))
	chunks := uint64(cfg.SMs) * simt.LogChunkCap * uint64(unsafe.Sizeof(simt.Event{})+unsafe.Sizeof(simt.Sample{}))
	sharded := launch(2)
	if held < 10*chunks/uint64(cfg.SMs) {
		t.Fatalf("the launch's streams are %d bytes, too few to tell a log from a slice", held)
	}
	if extra, bound := sharded-serial, held+held/4+chunks; sharded < serial+held || extra > bound {
		t.Errorf("Workers 2 allocated %d bytes over Workers 1 to buffer %d bytes of events and samples, want between that and %d", extra, held, bound)
	}
}
