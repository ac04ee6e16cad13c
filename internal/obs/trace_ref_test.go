package obs_test

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"specrecon/internal/core"
	"specrecon/internal/ir"
	"specrecon/internal/obs"
	"specrecon/internal/simt"
	"specrecon/internal/workloads"
)

// The parent commit's trace exporter, kept as the oracle for the
// recorder that replaced it: buffer the whole stream, build one
// traceEvent with a map of args per record, and let encoding/json lay
// the file out. refWriteTrace is that WriteTrace moved here unchanged
// but for taking the buffered streams as arguments (and sortedBarKeys
// using the standard sort); TestTraceMatchesReference holds the
// recorder to it byte for byte. One difference is intended and pinned by
// TestTraceClosesCTABarSpanUnderItsName: the oracle ends a ctabar span
// still open at the end of the run as "wait bN".

const trackStride = ir.NumBarrierRegs + 1

// traceEvent is one Trace Event Format record.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level Trace Event Format JSON object.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// execSpan tracks the open block-residency span of one warp.
type execSpan struct {
	fn, blk int32
	open    bool
}

// refWriteTrace renders an event and sample stream as Chrome trace-event
// JSON the way the parent's TraceRecorder.WriteTrace did.
func refWriteTrace(events []simt.Event, samples []simt.Sample) []byte {
	var out []traceEvent

	// Track bookkeeping: open block spans per warp, open barrier-wait
	// spans per (warp, barrier), and which tracks exist (for metadata).
	// Warp indices are launch-wide unique, so per-warp maps need no SM
	// qualifier; warpSM/maxSM remember each warp's home SM for the pid
	// field and the per-SM process metadata.
	execOpen := map[int32]*execSpan{}
	barOpen := map[[2]int32]bool{}
	seenExec := map[int32]bool{}
	seenBar := map[[2]int32]bool{}
	warpSM := map[int32]int32{}
	var maxSM int32
	var endCycle int64

	execTid := func(warp int32) int { return int(warp) * trackStride }
	barTid := func(warp int32, bar int16) int { return int(warp)*trackStride + 1 + int(bar) }

	for _, ev := range events {
		if c := ev.Cycle + ev.Cost; c > endCycle {
			endCycle = c
		}
		warpSM[ev.Warp] = ev.SM
		if ev.SM > maxSM {
			maxSM = ev.SM
		}
		pid := int(ev.SM)
		switch ev.Kind {
		case simt.EvIssue:
			seenExec[ev.Warp] = true
			sp := execOpen[ev.Warp]
			if sp == nil {
				sp = &execSpan{}
				execOpen[ev.Warp] = sp
			}
			if sp.open && (sp.fn != ev.Fn || sp.blk != ev.Blk) {
				out = append(out, traceEvent{
					Name: "block", Ph: "E", Ts: ev.Cycle, Pid: pid, Tid: execTid(ev.Warp),
				})
				sp.open = false
			}
			if !sp.open {
				out = append(out, traceEvent{
					Name: fmt.Sprintf("%s.%s", ev.FnName, ev.BlockName),
					Ph:   "B", Ts: ev.Cycle, Pid: pid, Tid: execTid(ev.Warp),
					Args: map[string]any{"mask": fmt.Sprintf("%08x", ev.Mask)},
				})
				sp.fn, sp.blk, sp.open = ev.Fn, ev.Blk, true
			}
		case simt.EvBranch:
			if !ev.Diverged() {
				continue
			}
			out = append(out, traceEvent{
				Name: fmt.Sprintf("diverge %s.%s", ev.FnName, ev.BlockName),
				Ph:   "i", Ts: ev.Cycle, Pid: pid, Tid: execTid(ev.Warp), S: "t",
				Args: map[string]any{
					"mask":  fmt.Sprintf("%08x", ev.Mask),
					"taken": fmt.Sprintf("%08x", ev.Aux),
				},
			})
		case simt.EvBarrierWait, simt.EvCTABarWait:
			key := [2]int32{ev.Warp, int32(ev.Bar)}
			seenBar[key] = true
			if barOpen[key] {
				continue // more lanes joined an already-open wait span
			}
			barOpen[key] = true
			name := fmt.Sprintf("wait b%d", ev.Bar)
			if ev.Kind == simt.EvCTABarWait {
				name = fmt.Sprintf("ctabar b%d", ev.Bar)
			}
			out = append(out, traceEvent{
				Name: name,
				Ph:   "B", Ts: ev.Cycle, Pid: pid, Tid: barTid(ev.Warp, ev.Bar),
				Args: map[string]any{
					"at":   fmt.Sprintf("%s.%s#%d", ev.FnName, ev.BlockName, ev.Ins),
					"mask": fmt.Sprintf("%08x", ev.Mask),
				},
			})
		case simt.EvBarrierRelease, simt.EvCTABarRelease:
			key := [2]int32{ev.Warp, int32(ev.Bar)}
			if !barOpen[key] {
				continue
			}
			barOpen[key] = false
			name := fmt.Sprintf("wait b%d", ev.Bar)
			if ev.Kind == simt.EvCTABarRelease {
				name = fmt.Sprintf("ctabar b%d", ev.Bar)
			}
			out = append(out, traceEvent{
				Name: name,
				Ph:   "E", Ts: ev.Cycle, Pid: pid, Tid: barTid(ev.Warp, ev.Bar),
				Args: map[string]any{"released": fmt.Sprintf("%08x", ev.Mask)},
			})
		}
	}

	// Per-SM utilization counter tracks, one point per occupancy sample.
	// Stacked "sm occupancy" areas decompose the resident warps into
	// issuing / eligible-but-not-issued / stalled-by-reason; "sm mem
	// stall" carries the window's memory-transaction cycles. Samples
	// arrive SM-ordered (the simulator replays its per-SM buffers), so
	// the output stays deterministic.
	for _, s := range samples {
		if s.SM > maxSM {
			maxSM = s.SM
		}
		if s.Cycle > endCycle {
			endCycle = s.Cycle
		}
		eligibleIdle := s.Eligible - s.Issued
		if eligibleIdle < 0 {
			eligibleIdle = 0
		}
		other := s.Resident - s.Eligible - s.StallBarrier - s.StallCTABar
		if other < 0 {
			other = 0
		}
		out = append(out, traceEvent{
			Name: "sm occupancy", Ph: "C", Ts: s.Cycle, Pid: int(s.SM), Tid: 0,
			Args: map[string]any{
				"issued":        s.Issued,
				"eligible idle": eligibleIdle,
				"stall barrier": s.StallBarrier,
				"stall ctabar":  s.StallCTABar,
				"stall other":   other,
			},
		}, traceEvent{
			Name: "sm mem stall", Ph: "C", Ts: s.Cycle, Pid: int(s.SM), Tid: 0,
			Args: map[string]any{"cycles": s.MemStallCycles},
		})
	}

	// Close every span still open at the end of the run.
	for _, sp := range sortedExec(execOpen) {
		if sp.span.open {
			out = append(out, traceEvent{
				Name: "block", Ph: "E", Ts: endCycle,
				Pid: int(warpSM[sp.warp]), Tid: execTid(sp.warp),
			})
		}
	}
	for _, key := range sortedBarKeys(barOpen) {
		if barOpen[key] {
			out = append(out, traceEvent{
				Name: fmt.Sprintf("wait b%d", key[1]), Ph: "E", Ts: endCycle,
				Pid: int(warpSM[key[0]]), Tid: barTid(key[0], int16(key[1])),
			})
		}
	}

	// Track-name metadata, emitted ahead of the stream. A single-SM
	// stream keeps the historical "simt" process name; a multi-SM stream
	// gets one named, sort-ordered process per SM.
	var meta []traceEvent
	if maxSM == 0 {
		meta = append(meta, traceEvent{
			Name: "process_name", Ph: "M", Ts: 0, Pid: 0, Tid: 0,
			Args: map[string]any{"name": "simt"},
		})
	} else {
		for s := int32(0); s <= maxSM; s++ {
			meta = append(meta,
				traceEvent{
					Name: "process_name", Ph: "M", Ts: 0, Pid: int(s), Tid: 0,
					Args: map[string]any{"name": fmt.Sprintf("sm %d", s)},
				},
				traceEvent{
					Name: "process_sort_index", Ph: "M", Ts: 0, Pid: int(s), Tid: 0,
					Args: map[string]any{"sort_index": int(s)},
				})
		}
	}
	for _, warp := range sortedWarps(seenExec) {
		meta = append(meta, traceEvent{
			Name: "thread_name", Ph: "M", Ts: 0, Pid: int(warpSM[warp]), Tid: execTid(warp),
			Args: map[string]any{"name": fmt.Sprintf("warp %d", warp)},
		})
	}
	for _, key := range sortedBarKeys(seenBar) {
		meta = append(meta, traceEvent{
			Name: "thread_name", Ph: "M", Ts: 0, Pid: int(warpSM[key[0]]), Tid: barTid(key[0], int16(key[1])),
			Args: map[string]any{"name": fmt.Sprintf("warp %d barrier b%d", key[0], key[1])},
		})
	}

	var w bytes.Buffer
	enc := json.NewEncoder(&w)
	enc.SetIndent("", " ")
	if err := enc.Encode(traceFile{TraceEvents: append(meta, out...), DisplayTimeUnit: "ms"}); err != nil {
		panic(err) // strings, ints and maps of them always encode
	}
	return w.Bytes()
}

// sortedWarps returns map keys in ascending order for deterministic
// output.
func sortedWarps(m map[int32]bool) []int32 {
	out := make([]int32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

type warpSpan struct {
	warp int32
	span *execSpan
}

// sortedExec returns the open exec spans ordered by warp.
func sortedExec(m map[int32]*execSpan) []warpSpan {
	warps := make([]int32, 0, len(m))
	for k := range m {
		warps = append(warps, k)
	}
	for i := 1; i < len(warps); i++ {
		for j := i; j > 0 && warps[j] < warps[j-1]; j-- {
			warps[j], warps[j-1] = warps[j-1], warps[j]
		}
	}
	out := make([]warpSpan, len(warps))
	for i, w := range warps {
		out[i] = warpSpan{warp: w, span: m[w]}
	}
	return out
}

// sortedBarKeys returns (warp, barrier) keys in ascending order.
func sortedBarKeys(m map[[2]int32]bool) [][2]int32 {
	out := make([][2]int32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.SortFunc(out, func(a, b [2]int32) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return out
}

// refCapture feeds a launch's event and sample streams to the recorder
// under test while keeping them for the oracle.
type refCapture struct {
	rec     *obs.TraceRecorder
	events  []simt.Event
	samples []simt.Sample
}

func newRefCapture() *refCapture { return &refCapture{rec: obs.NewTraceRecorder()} }

func (c *refCapture) Event(ev *simt.Event) {
	c.events = append(c.events, *ev)
	c.rec.Event(ev)
}

func (c *refCapture) Sample(s simt.Sample) {
	c.samples = append(c.samples, s)
	c.rec.Sample(s)
}

// run launches m with the capture attached as both sinks.
func (c *refCapture) run(t *testing.T, m *ir.Module, cfg simt.Config) {
	t.Helper()
	cfg.Events, cfg.Samples = c, c
	if _, err := simt.Run(m, cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// check holds the recorder's trace to the oracle's over the same streams.
func (c *refCapture) check(t *testing.T) {
	t.Helper()
	if got, want := c.rec.Len(), len(c.events); got != want {
		t.Errorf("Len() = %d, want %d events received", got, want)
	}
	var got bytes.Buffer
	if err := c.rec.WriteTrace(&got); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	want := refWriteTrace(c.events, c.samples)
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("trace differs from the reference exporter's: %s", firstDiff(got.Bytes(), want))
	}
}

// firstDiff describes where two byte strings part.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	window := func(b []byte) []byte { return b[max(i-60, 0):min(i+60, len(b))] }
	return fmt.Sprintf("%d vs %d bytes, first difference at byte %d\ngot:  %q\nwant: %q",
		len(got), len(want), i, window(got), window(want))
}

// TestTraceMatchesReference holds the folding, hand-rendering recorder
// to the parent's buffer-then-encoding/json exporter, byte for byte, on
// every kind of stream the simulator produces and on streams it cannot.
func TestTraceMatchesReference(t *testing.T) {
	// The bundled workloads under both builds: calls, nested divergence,
	// convergence barriers with late arrivals, soft barriers.
	for _, w := range workloads.All() {
		inst := w.Build(workloads.BuildConfig{})
		for _, build := range []struct {
			name string
			opts core.Options
		}{{"base", core.BaselineOptions()}, {"spec", core.SpecReconOptions()}} {
			t.Run(w.Name+"/"+build.name, func(t *testing.T) {
				comp, err := core.Compile(inst.Module, build.opts)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				c := newRefCapture()
				c.run(t, comp.Module, simt.Config{
					Kernel: inst.Kernel, Threads: inst.Threads, Seed: inst.Seed,
					Memory: inst.Memory, Strict: true,
				})
				c.check(t)
			})
		}
	}

	// Every driver that delivers events differently, sampler on: flat
	// run-to-completion (no samples), flat interleaved (samples as SM 0),
	// and a 2-SM grid delivered in place (Workers 1) and from the replay
	// buffers (Workers 2).
	grid := simt.Config{Grid: 4, CTASize: 2 * ir.WarpWidth, SMs: 2, Seed: 5, SampleStride: 16}
	sharded := grid
	sharded.Workers = 2
	flat := simt.Config{Threads: 4 * ir.WarpWidth, Seed: 5, SampleStride: 16}
	interleaved := flat
	interleaved.InterleaveWarps = true
	launches := []struct {
		name string
		src  string
		cfg  simt.Config
	}{
		{"flat", divergentBarrierKernel, flat},
		{"interleave", divergentBarrierKernel, interleaved},
		{"grid/workers1", gridKernel, grid},
		{"grid/workers2", gridKernel, sharded},
	}
	for _, l := range launches {
		t.Run(l.name, func(t *testing.T) {
			c := newRefCapture()
			c.run(t, asm(t, l.src), l.cfg)
			if sampled := l.name != "flat"; sampled != (len(c.samples) > 0) {
				t.Errorf("%d samples recorded, sampled driver = %v", len(c.samples), sampled)
			}
			c.check(t)
		})
	}

	// One recorder across two launches of different modules: the fold
	// carries on (cycles restart, warp indices and (fn, blk) pairs are
	// reused for other blocks), and a trace written between the launches
	// changes nothing about the one written after.
	t.Run("reused", func(t *testing.T) {
		c := newRefCapture()
		c.run(t, asm(t, gridKernel), grid)
		c.check(t)
		c.run(t, asm(t, divergentBarrierKernel), interleaved)
		c.check(t)
		c.check(t)
	})

	t.Run("empty", func(t *testing.T) { newRefCapture().check(t) })

	// Names only encoding/json's escaping gets right, on a stream with
	// spans left open, a release with no wait, and the same (fn, blk)
	// under two names.
	t.Run("escaping", func(t *testing.T) {
		c := newRefCapture()
		names := [][2]string{
			{"k<T>", "a&b"}, {`q"uote`, `back\slash`}, {"ctl\x01\n", "bad\xff\xc3utf8"},
			{"sep ", "tab\t"}, {"", ""}, {"π", "λ.µ"},
		}
		cycle := int64(0)
		for i, n := range names {
			ev := simt.Event{
				Warp: []int32{0, 7, 130}[i%3], SM: int32(i % 2), Fn: int32(i % 2), Blk: 7,
				FnName: n[0], BlockName: n[1], Ins: []int32{-1, 5, 1234}[i%3], Bar: -1, Mask: 0xffff0000 >> i,
			}
			for _, k := range []simt.EventKind{simt.EvIssue, simt.EvBranch, simt.EvBarrierWait, simt.EvBarrierRelease, simt.EvCacheAccess} {
				ev.Kind, ev.Cycle, ev.Cost, ev.Aux = k, cycle, 2, 0xf0f0
				if k == simt.EvBarrierWait || k == simt.EvBarrierRelease {
					ev.Bar = int16(i % 2)
				}
				if k == simt.EvBarrierRelease {
					ev.Warp = []int32{0, 7, 130}[(i+1)%3] // mostly releases nothing
				}
				c.Event(&ev)
				cycle += 3
			}
		}
		c.Sample(simt.Sample{SM: 1, Cycle: cycle + 9, Resident: 2, Eligible: 3, Issued: 1, StallBarrier: 1})
		c.check(t)
	})
}

// TestTraceClosesCTABarSpanUnderItsName: a launch that ends blocked at a
// workgroup barrier must end that span as "ctabar bN", the name it began
// with — the parent's exporter ended every open wait span as "wait bN".
// A convergence-barrier wait reopened on the same track afterwards must
// close as "wait bN" again.
func TestTraceClosesCTABarSpanUnderItsName(t *testing.T) {
	c := newRefCapture()
	wait := func(kind simt.EventKind, warp int32, bar int16, cycle int64) {
		c.Event(&simt.Event{
			Kind: kind, Warp: warp, Bar: bar, Cycle: cycle, Mask: 1,
			FnName: "k", BlockName: "e", Ins: 3,
		})
	}
	wait(simt.EvCTABarWait, 0, 2, 10)
	wait(simt.EvCTABarWait, 1, 4, 11)
	wait(simt.EvCTABarRelease, 1, 4, 12)
	wait(simt.EvBarrierWait, 1, 4, 13)

	var buf bytes.Buffer
	if err := c.rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	open := map[int]string{}
	closedAtEnd := map[int]string{}
	for _, ev := range file.TraceEvents {
		switch ev.Ph {
		case "B":
			open[ev.Tid] = ev.Name
		case "E":
			if open[ev.Tid] != ev.Name {
				t.Errorf("tid %d: span %q ended as %q", ev.Tid, open[ev.Tid], ev.Name)
			}
			if ev.Ts == 13 {
				closedAtEnd[ev.Tid] = ev.Name
			}
		}
	}
	want := map[int]string{0*trackStride + 1 + 2: "ctabar b2", 1*trackStride + 1 + 4: "wait b4"}
	if !reflect.DeepEqual(closedAtEnd, want) {
		t.Errorf("spans closed at the end of the run = %v, want %v", closedAtEnd, want)
	}
	// The name is the whole of the difference from the oracle.
	ref := refWriteTrace(c.events, c.samples)
	i := bytes.LastIndex(ref, []byte(`"wait b2"`))
	if i < 0 {
		t.Fatal(`the reference exporter no longer closes the span as "wait b2"`)
	}
	fixed := append(append(append([]byte(nil), ref[:i]...), `"ctabar b2"`...), ref[i+len(`"wait b2"`):]...)
	if !bytes.Equal(buf.Bytes(), fixed) {
		t.Errorf("trace differs from the reference by more than the close name: %s", firstDiff(buf.Bytes(), fixed))
	}
}
