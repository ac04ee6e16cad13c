package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"specrecon/internal/core"
	"specrecon/internal/ir"
	"specrecon/internal/obs"
	"specrecon/internal/simt"
	"specrecon/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// recordTrace runs the shared divergent+barrier kernel under round-robin
// scheduling (so barrier-wait spans have nonzero width) and returns the
// rendered trace JSON.
func recordTrace(t testing.TB) []byte {
	t.Helper()
	m := asm(t, divergentBarrierKernel)
	rec := obs.NewTraceRecorder()
	if _, err := simt.Run(m, simt.Config{Strict: true, Policy: simt.PolicyRoundRobin, Events: rec}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rec.Len() == 0 {
		t.Fatal("recorder captured no events")
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	return buf.Bytes()
}

// TestTraceGolden pins the exporter's output byte-for-byte. Regenerate
// with go test ./internal/obs -run TestTraceGolden -update after an
// intentional format change.
func TestTraceGolden(t *testing.T) {
	got := recordTrace(t)
	golden := filepath.Join("testdata", "trace_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace differs from %s (rerun with -update if intentional)\ngot:\n%s", golden, got)
	}
}

// TestTraceSchema validates the structural invariants Perfetto needs:
// the file parses, every event carries a known phase, timestamps are
// nondecreasing per track, and every track's B/E spans pair up.
func TestTraceSchema(t *testing.T) {
	raw := recordTrace(t)

	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}

	lastTs := map[int]int64{}
	openSpans := map[int]int{}
	kinds := map[string]int{}
	for i, ev := range file.TraceEvents {
		kinds[ev.Ph]++
		switch ev.Ph {
		case "M":
			if ev.Args["name"] == nil {
				t.Errorf("event %d: metadata without args.name", i)
			}
			continue
		case "B":
			openSpans[ev.Tid]++
			if openSpans[ev.Tid] > 1 {
				t.Errorf("event %d: overlapping B on tid %d", i, ev.Tid)
			}
		case "E":
			openSpans[ev.Tid]--
			if openSpans[ev.Tid] < 0 {
				t.Errorf("event %d: E without matching B on tid %d", i, ev.Tid)
			}
		case "i":
			// instants carry a scope
		default:
			t.Errorf("event %d: unknown phase %q", i, ev.Ph)
		}
		if prev, ok := lastTs[ev.Tid]; ok && ev.Ts < prev {
			t.Errorf("event %d: ts %d < %d on tid %d", i, ev.Ts, prev, ev.Tid)
		}
		lastTs[ev.Tid] = ev.Ts
	}
	for tid, n := range openSpans {
		if n != 0 {
			t.Errorf("tid %d ends with %d unclosed spans", tid, n)
		}
	}
	if kinds["M"] == 0 || kinds["B"] == 0 || kinds["E"] == 0 || kinds["i"] == 0 {
		t.Errorf("phase coverage %v: want metadata, spans and instants all present", kinds)
	}
	if kinds["B"] != kinds["E"] {
		t.Errorf("unbalanced spans: %d B vs %d E", kinds["B"], kinds["E"])
	}
}

// TestTraceHasBarrierSpan: the divergent kernel's fast half blocks at b0,
// so the trace must include a wait span on a barrier track with nonzero
// duration.
func TestTraceHasBarrierSpan(t *testing.T) {
	raw := recordTrace(t)
	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("parse: %v", err)
	}
	begin := map[int]int64{}
	var spans int
	for _, ev := range file.TraceEvents {
		if ev.Name != "wait b0" {
			continue
		}
		switch ev.Ph {
		case "B":
			begin[ev.Tid] = ev.Ts
		case "E":
			if ev.Ts > begin[ev.Tid] {
				spans++
			}
		}
	}
	if spans == 0 {
		t.Error("no barrier-wait span with nonzero duration")
	}
}

// rsbenchSpec builds RSBench at the given launch shape, compiles it
// speculatively and returns the launch configuration of that build.
func rsbenchSpec(t *testing.T, shape workloads.BuildConfig) (*ir.Module, simt.Config) {
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

// TestTraceRecorderAllocsPerEvent bounds what recording costs the
// allocator: the recorder stores a record for a few percent of the
// events, in a log that allocates a chunk of up to simt.LogChunkCap
// records at a time, so a fresh recorder fed a whole RSBench launch must
// stay far under one allocation per twenty events. This guards against a
// per-event allocation creeping in; the bytes are
// TestRecordersAllocateWhatTheyHold's to bound.
func TestTraceRecorderAllocsPerEvent(t *testing.T) {
	mod, cfg := rsbenchSpec(t, workloads.BuildConfig{})
	var events []simt.Event
	cfg.Events = simt.SinkFunc(func(ev simt.Event) { events = append(events, ev) })
	if _, err := simt.Run(mod, cfg); err != nil {
		t.Fatal(err)
	}
	perRun := testing.AllocsPerRun(3, func() {
		rec := obs.NewTraceRecorder()
		for i := range events {
			rec.Event(&events[i])
		}
	})
	if perEvent := perRun / float64(len(events)); perEvent >= 0.05 {
		t.Errorf("%.0f allocations over %d events = %.4f per event, want < 0.05", perRun, len(events), perEvent)
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc - before.TotalAlloc)
}

// TestRecordersAllocateWhatTheyHold bounds the bytes the two recorders
// allocate for the streams of an RSBench grid launch sampled every pass:
// what they end up holding, a quarter more, and one capped chunk per log
// — a fresh OccupancyRecorder for its samples, a fresh TraceRecorder for
// its records and the same samples. Lists grown by append allocated
// about five times what they held.
func TestRecordersAllocateWhatTheyHold(t *testing.T) {
	mod, cfg := rsbenchSpec(t, workloads.BuildConfig{Grid: 4, CTASize: 2 * ir.WarpWidth, SMs: 2})
	var events []simt.Event
	var samples []simt.Sample
	cfg.Events = simt.SinkFunc(func(ev simt.Event) { events = append(events, ev) })
	cfg.SampleStride, cfg.Samples = 1, simt.SampleSinkFunc(func(s simt.Sample) { samples = append(samples, s) })
	if _, err := simt.Run(mod, cfg); err != nil {
		t.Fatal(err)
	}
	sampleSize := int(unsafe.Sizeof(simt.Sample{}))
	if len(samples) < 3*simt.LogChunkCap {
		t.Fatalf("%d samples, too few to fill three capped chunks", len(samples))
	}
	check := func(what string, got, held, chunk int) {
		t.Helper()
		if bound := held + held/4 + chunk; got < held || got > bound {
			t.Errorf("%s allocated %d bytes to hold %d, want between that and %d", what, got, held, bound)
		}
	}

	occ := obs.NewOccupancyRecorder()
	got := allocated(func() {
		for _, s := range samples {
			occ.Sample(s)
		}
	})
	check("OccupancyRecorder", got, occ.Len()*sampleSize, simt.LogChunkCap*sampleSize)

	rec := obs.NewTraceRecorder()
	got = allocated(func() {
		for i := range events {
			rec.Event(&events[i])
		}
		for _, s := range samples {
			rec.Sample(s)
		}
	})
	// Two logs, so two last chunks; a trace record is smaller than a sample.
	check("TraceRecorder", got, rec.HeldBytes(), 2*simt.LogChunkCap*sampleSize)
}
