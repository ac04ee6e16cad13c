package obs

import (
	"encoding/json"
	"io"
	"strconv"

	"specrecon/internal/ir"
	"specrecon/internal/simt"
)

// Chrome trace-event / Perfetto export. WriteTrace renders a recorded
// event stream in the Trace Event Format (the JSON flavor Perfetto's
// ui.perfetto.dev opens directly): one process (track group) per SM,
// and per warp one execution track carrying block-residency spans plus
// divergence instants, and one track per (warp, barrier register)
// carrying barrier-wait spans (convergence barriers and ctabar
// workgroup barriers alike). Timestamps are modeled cycles reported as
// microseconds — the absolute unit is meaningless for a simulator, only
// the ratios matter. A flat launch reports every event on SM 0, so its
// trace keeps the single "simt" process of the pre-hierarchy exporter.

// trackStride spaces the synthetic thread ids of one warp's tracks: tid
// warp*trackStride is the execution track, warp*trackStride+1+b the
// track of barrier register b.
const trackStride = ir.NumBarrierRegs + 1

// TraceRecorder turns the simulator event stream into a trace. It
// implements simt.EventSink and simt.SampleSink; attach it via
// simt.Config.Events (combine with a Profile using simt.TeeSinks) and,
// for the occupancy counter tracks, simt.Config.Samples.
//
// The trace is a left fold over the stream, and the recorder runs that
// fold as events arrive instead of buffering them: per warp it tracks
// the open block span and the open barrier waits, and it stores only
// the records the trace will carry — a block span's begin and end, a
// diverged branch, a barrier wait's begin and end — as 32-byte
// pointer-free structs, with each block's name escaped once. Most
// events (an issue inside the block its warp is already in, a cache
// access, a call) store nothing, so a recorder holds about a twentieth
// of the stream's bytes; the records and the occupancy samples, kept as
// they arrive, go into simt.Logs, so the recorder allocates what it holds
// plus at most a chunk of each (TestRecordersAllocateWhatTheyHold) and
// never per event (TestTraceRecorderAllocsPerEvent). An Event is read
// during the call and nothing of it is kept but copied fields and the
// module's own name strings. Warp indices must be non-negative and
// barrier registers within [0, ir.NumBarrierRegs), as the simulator
// guarantees; events outside that are counted by Len but leave no track.
type TraceRecorder struct {
	n        int // events received
	warps    []warpTrack
	recs     simt.Log[traceRec]
	samples  simt.Log[simt.Sample]
	names    []blockName
	nameIDs  map[nameKey]int32
	maxSM    int32
	endCycle int64
}

// warpTrack is the fold's state for one warp, indexed by the launch-wide
// warp index (unique across SMs, so no SM qualifier is needed). The bar*
// fields are bitmasks over barrier registers.
type warpTrack struct {
	sm        int32 // SM of the warp's latest event: the pid of its tracks
	fn, blk   int32 // the open block span, valid while blockOpen
	blockOpen bool
	exec      bool   // issued at least once: the execution track exists
	barSeen   uint16 // barrier tracks that exist
	barOpen   uint16 // barrier tracks with an open wait span
	barCTA    uint16 // open wait spans begun by a ctabar
}

type recKind uint8

const (
	recBlockBegin recKind = iota
	recBlockEnd
	recDiverge
	recWaitBegin
	recCTABarBegin
	recWaitEnd
	recCTABarEnd
)

// traceRec is one stored trace record. It holds no pointers, so the
// record list costs the garbage collector nothing to scan.
type traceRec struct {
	ts   int64
	warp int32
	sm   int32
	name int32  // index into names: block begin, diverge, wait begin
	mask uint32 // the active, blocked or released lanes
	aux  uint32 // diverge: the taken lanes; wait begin: the instruction index
	bar  uint8
	kind recKind
}

// nameKey identifies a block within one module.
type nameKey struct{ fn, blk int32 }

// blockName is an interned "fn.blk". fn and blk are the event's own
// strings, compared on every hit so that a recorder reused across
// modules never serves one module's name for another's (fn, blk).
type blockName struct {
	fn, blk string
	escaped string // fn + "." + blk as encoding/json writes it, unquoted
}

// NewTraceRecorder returns an empty recorder.
func NewTraceRecorder() *TraceRecorder {
	return &TraceRecorder{}
}

// Len returns the number of events received.
func (r *TraceRecorder) Len() int { return r.n }

// track returns warp's fold state. The table is indexed, so it is a
// slice and not a Log: it at least doubles when a warp index falls
// outside it, and a launch of thousands of warps sizes it in a handful of
// steps.
func (r *TraceRecorder) track(warp int32) *warpTrack {
	if int(warp) >= len(r.warps) {
		grown := make([]warpTrack, max(int(warp)+1, 2*len(r.warps)))
		copy(grown, r.warps)
		r.warps = grown
	}
	return &r.warps[warp]
}

// intern returns the names index of ev's block.
func (r *TraceRecorder) intern(ev *simt.Event) int32 {
	key := nameKey{ev.Fn, ev.Blk}
	if id, ok := r.nameIDs[key]; ok {
		if n := &r.names[id]; n.fn == ev.FnName && n.blk == ev.BlockName {
			return id
		}
	}
	// encoding/json's own string encoder (HTML-safe escaping, U+FFFD for
	// invalid UTF-8) keeps the file identical to an encoder-written one.
	quoted, _ := json.Marshal(ev.FnName + "." + ev.BlockName)
	if r.nameIDs == nil {
		r.nameIDs = map[nameKey]int32{}
	}
	id := int32(len(r.names))
	r.names = append(r.names, blockName{
		fn: ev.FnName, blk: ev.BlockName,
		escaped: string(quoted[1 : len(quoted)-1]),
	})
	r.nameIDs[key] = id
	return id
}

// Event implements simt.EventSink: one step of the trace fold.
func (r *TraceRecorder) Event(ev *simt.Event) {
	r.n++
	if c := ev.Cycle + ev.Cost; c > r.endCycle {
		r.endCycle = c
	}
	if ev.SM > r.maxSM {
		r.maxSM = ev.SM
	}
	if ev.Warp < 0 {
		return
	}
	wt := r.track(ev.Warp)
	wt.sm = ev.SM
	rec := traceRec{ts: ev.Cycle, warp: ev.Warp, sm: ev.SM, mask: ev.Mask}
	switch ev.Kind {
	case simt.EvIssue:
		wt.exec = true
		if wt.blockOpen {
			if wt.fn == ev.Fn && wt.blk == ev.Blk {
				return
			}
			rec.kind = recBlockEnd
			r.recs.Append(rec)
		}
		wt.fn, wt.blk, wt.blockOpen = ev.Fn, ev.Blk, true
		rec.kind, rec.name = recBlockBegin, r.intern(ev)
	case simt.EvBranch:
		if !ev.Diverged() {
			return
		}
		rec.kind, rec.name, rec.aux = recDiverge, r.intern(ev), ev.Aux
	case simt.EvBarrierWait, simt.EvCTABarWait:
		if ev.Bar < 0 || ev.Bar >= ir.NumBarrierRegs {
			return
		}
		bit := uint16(1) << ev.Bar
		wt.barSeen |= bit
		if wt.barOpen&bit != 0 {
			return // more lanes joined an already-open wait span
		}
		wt.barOpen |= bit
		rec.kind = recWaitBegin
		wt.barCTA &^= bit
		if ev.Kind == simt.EvCTABarWait {
			rec.kind = recCTABarBegin
			wt.barCTA |= bit
		}
		rec.bar, rec.name, rec.aux = uint8(ev.Bar), r.intern(ev), uint32(ev.Ins)
	case simt.EvBarrierRelease, simt.EvCTABarRelease:
		if ev.Bar < 0 || ev.Bar >= ir.NumBarrierRegs {
			return
		}
		bit := uint16(1) << ev.Bar
		if wt.barOpen&bit == 0 {
			return
		}
		wt.barOpen &^= bit
		rec.kind = recWaitEnd
		if ev.Kind == simt.EvCTABarRelease {
			rec.kind = recCTABarEnd
		}
		rec.bar = uint8(ev.Bar)
	default:
		return
	}
	r.recs.Append(rec)
}

// Sample implements simt.SampleSink: occupancy samples recorded here
// render as per-SM counter tracks ("sm occupancy", "sm mem stall") in
// WriteTrace. Attach via simt.Config.Samples alongside Events; a trace
// with no samples is byte-identical to the pre-sampler exporter.
func (r *TraceRecorder) Sample(s simt.Sample) {
	if s.SM > r.maxSM {
		r.maxSM = s.SM
	}
	if s.Cycle > r.endCycle {
		r.endCycle = s.Cycle
	}
	r.samples.Append(s)
}

// WriteTrace renders what was recorded so far as Chrome trace-event
// JSON: track-name metadata, the event records in stream order, the
// occupancy counters, and an end for every span still open at the last
// recorded cycle. It does not change the recorder, which can keep
// recording and be written again. The bytes are exactly what
// encoding/json's Encoder with SetIndent("", " ") writes for the same
// records (trace_ref_test.go holds that exporter as the oracle); they
// are rendered by hand because reflecting over one map-carrying struct
// per record cost more than simulating the launch.
func (r *TraceRecorder) WriteTrace(w io.Writer) error {
	tw := traceWriter{w: w, buf: make([]byte, 0, traceChunk+1024)}
	tw.buf = append(tw.buf, "{\n \"traceEvents\": [\n"...)

	// Track-name metadata, ahead of the stream. A single-SM stream keeps
	// the historical "simt" process name; a multi-SM stream gets one
	// named, sort-ordered process per SM.
	if r.maxSM == 0 {
		tw.open('M', 0, 0, 0, text("process_name"))
		tw.argString("name", text("simt"))
		tw.close()
	} else {
		for s := 0; s <= int(r.maxSM); s++ {
			tw.open('M', 0, s, 0, text("process_name"))
			tw.argString("name", numbered("sm ", s))
			tw.close()
			tw.open('M', 0, s, 0, text("process_sort_index"))
			tw.argInt("sort_index", int64(s))
			tw.close()
		}
	}
	for warp := range r.warps {
		if wt := &r.warps[warp]; wt.exec {
			tw.open('M', 0, int(wt.sm), warp*trackStride, text("thread_name"))
			tw.argString("name", numbered("warp ", warp))
			tw.close()
		}
	}
	for warp := range r.warps {
		wt := &r.warps[warp]
		for bar := 0; bar < ir.NumBarrierRegs; bar++ {
			if wt.barSeen&(1<<bar) != 0 {
				tw.open('M', 0, int(wt.sm), warp*trackStride+1+bar, text("thread_name"))
				tw.argString("name", numbered("warp ", warp), numbered(" barrier b", bar))
				tw.close()
			}
		}
	}

	r.recs.Each(func(rec *traceRec) {
		pid, tid := int(rec.sm), int(rec.warp)*trackStride
		switch rec.kind {
		case recBlockBegin:
			tw.open('B', rec.ts, pid, tid, text(r.names[rec.name].escaped))
			tw.argHex("mask", rec.mask)
		case recBlockEnd:
			tw.open('E', rec.ts, pid, tid, text("block"))
		case recDiverge:
			tw.open('i', rec.ts, pid, tid, text("diverge "), text(r.names[rec.name].escaped))
			tw.argHex("mask", rec.mask)
			tw.argHex("taken", rec.aux)
		case recWaitBegin, recCTABarBegin:
			tw.open('B', rec.ts, pid, tid+1+int(rec.bar), waitName(rec.kind == recCTABarBegin, int(rec.bar)))
			tw.argString("at", text(r.names[rec.name].escaped), numbered("#", int(int32(rec.aux))))
			tw.argHex("mask", rec.mask)
		case recWaitEnd, recCTABarEnd:
			tw.open('E', rec.ts, pid, tid+1+int(rec.bar), waitName(rec.kind == recCTABarEnd, int(rec.bar)))
			tw.argHex("released", rec.mask)
		}
		tw.close()
	})

	// Per-SM utilization counter tracks, one point per occupancy sample.
	// Stacked "sm occupancy" areas decompose the resident warps into
	// issuing / eligible-but-not-issued / stalled-by-reason; "sm mem
	// stall" carries the window's memory-transaction cycles. Samples
	// arrive SM-ordered (the simulator delivers SM by SM), so the output
	// stays deterministic.
	r.samples.Each(func(s *simt.Sample) {
		tw.open('C', s.Cycle, int(s.SM), 0, text("sm occupancy"))
		tw.argInt("eligible idle", int64(max(s.Eligible-s.Issued, 0)))
		tw.argInt("issued", int64(s.Issued))
		tw.argInt("stall barrier", int64(s.StallBarrier))
		tw.argInt("stall ctabar", int64(s.StallCTABar))
		tw.argInt("stall other", int64(max(s.Resident-s.Eligible-s.StallBarrier-s.StallCTABar, 0)))
		tw.close()
		tw.open('C', s.Cycle, int(s.SM), 0, text("sm mem stall"))
		tw.argInt("cycles", s.MemStallCycles)
		tw.close()
	})

	// Close every span still open at the end of the run: block spans by
	// warp, then wait spans by (warp, barrier), each under the name it
	// was opened with.
	for warp := range r.warps {
		if wt := &r.warps[warp]; wt.blockOpen {
			tw.open('E', r.endCycle, int(wt.sm), warp*trackStride, text("block"))
			tw.close()
		}
	}
	for warp := range r.warps {
		wt := &r.warps[warp]
		for bar := 0; bar < ir.NumBarrierRegs; bar++ {
			if wt.barOpen&(1<<bar) != 0 {
				tw.open('E', r.endCycle, int(wt.sm), warp*trackStride+1+bar, waitName(wt.barCTA&(1<<bar) != 0, bar))
				tw.close()
			}
		}
	}

	tw.buf = append(tw.buf, "\n ],\n \"displayTimeUnit\": \"ms\"\n}\n"...)
	return tw.flush()
}

// waitName names a wait span on barrier register bar.
func waitName(ctabar bool, bar int) part {
	if ctabar {
		return numbered("ctabar b", bar)
	}
	return numbered("wait b", bar)
}

// part is a piece of a JSON string value: text that is already
// JSON-safe, then, if numbered, a decimal number. Names and labels are
// passed to traceWriter as parts so that composing "warp 4711" or
// "k.loop#120" builds no intermediate string.
type part struct {
	text     string
	num      int
	numbered bool
}

func text(s string) part { return part{text: s} }

func numbered(s string, n int) part { return part{text: s, num: n, numbered: true} }

// traceChunk is how much rendered JSON traceWriter gathers per Write.
const traceChunk = 64 << 10

// traceWriter renders Trace Event Format records in json.Encoder's
// one-space-indented layout: open writes a record's fixed fields, the
// arg methods its "args" members (callers pass keys in sorted order, as
// the encoder sorts map keys), close ends it. The first Write error
// sticks and is returned by flush.
type traceWriter struct {
	w     io.Writer
	buf   []byte
	err   error
	nrecs int
	nargs int
}

// open begins a record named by the concatenation of name. An instant
// ('i') gets the thread scope the exporter always used.
func (t *traceWriter) open(ph byte, ts int64, pid, tid int, name ...part) {
	if len(t.buf) >= traceChunk {
		t.flush()
	}
	b := t.buf
	if t.nrecs > 0 {
		b = append(b, ",\n"...)
	}
	t.nrecs++
	t.nargs = 0
	b = append(b, "  {\n   \"name\": \""...)
	b = appendParts(b, name)
	b = append(b, "\",\n   \"ph\": \""...)
	b = append(b, ph)
	b = append(b, "\",\n   \"ts\": "...)
	b = strconv.AppendInt(b, ts, 10)
	b = append(b, ",\n   \"pid\": "...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, ",\n   \"tid\": "...)
	b = strconv.AppendInt(b, int64(tid), 10)
	if ph == 'i' {
		b = append(b, ",\n   \"s\": \"t\""...)
	}
	t.buf = b
}

// arg begins an args member and leaves the buffer at its value.
func (t *traceWriter) arg(key string) {
	if t.nargs == 0 {
		t.buf = append(t.buf, ",\n   \"args\": {\n    \""...)
	} else {
		t.buf = append(t.buf, ",\n    \""...)
	}
	t.nargs++
	t.buf = append(t.buf, key...)
	t.buf = append(t.buf, "\": "...)
}

func (t *traceWriter) argInt(key string, v int64) {
	t.arg(key)
	t.buf = strconv.AppendInt(t.buf, v, 10)
}

// argString writes the concatenation of value as a string.
func (t *traceWriter) argString(key string, value ...part) {
	t.arg(key)
	t.buf = append(t.buf, '"')
	t.buf = appendParts(t.buf, value)
	t.buf = append(t.buf, '"')
}

func appendParts(b []byte, parts []part) []byte {
	for _, p := range parts {
		b = append(b, p.text...)
		if p.numbered {
			b = strconv.AppendInt(b, int64(p.num), 10)
		}
	}
	return b
}

// argHex writes a lane mask as the exporter's "%08x" string.
func (t *traceWriter) argHex(key string, v uint32) {
	const digits = "0123456789abcdef"
	t.arg(key)
	t.buf = append(t.buf, '"')
	for shift := 28; shift >= 0; shift -= 4 {
		t.buf = append(t.buf, digits[v>>shift&0xf])
	}
	t.buf = append(t.buf, '"')
}

func (t *traceWriter) close() {
	if t.nargs > 0 {
		t.buf = append(t.buf, "\n   }"...)
	}
	t.buf = append(t.buf, "\n  }"...)
}

func (t *traceWriter) flush() error {
	if t.err == nil && len(t.buf) > 0 {
		_, t.err = t.w.Write(t.buf)
	}
	t.buf = t.buf[:0]
	return t.err
}
