package simt

import "specrecon/internal/ir"

// Generalized simulator event stream. Both divergence models (ITS and
// the pre-Volta stack) publish the same events through Config.Events, and every observer — the per-PC profiler, the Perfetto
// trace exporter, the ASCII timeline — is a sink over this one stream.
//
// The stream is designed so that a counting sink keeps the issue loop
// allocation-free: each SM builds its events in one scratch Event of its
// own and hands every sink the same pointer to it, the static
// instruction is identified by a dense PC index assigned at decode time
// (see BuildPCTable), and name fields are copies of string headers that
// already exist in the module. A sink that only increments decode-indexed
// tables therefore costs two branches and a few array writes per issue,
// and no sink costs a copy of the Event it does not make itself.

// EventKind discriminates Event payloads.
type EventKind uint8

const (
	// EvIssue fires once per issued warp instruction, after the issue
	// cost (base latency plus memory transaction time) is known. Mask is
	// the active-lane mask; Cost the total modeled cycles charged.
	EvIssue EventKind = iota
	// EvBranch fires when a conditional branch resolves. Mask is the
	// active mask, Aux the lanes that took the true edge; the branch
	// diverged iff Aux != 0 && Aux != Mask.
	EvBranch
	// EvBarrierWait fires when lanes block at a wait/waitn. Mask is the
	// newly blocked cohort; Bar the barrier register; PC the wait
	// instruction. ModelITS only (the stack model has no convergence
	// barriers).
	EvBarrierWait
	// EvBarrierRelease fires when blocked lanes are released past their
	// wait. Mask is the released cohort; Bar the barrier register. The
	// release site is not an instruction (cancel, exit or a late arrival
	// may trigger it), so PC/Fn/Blk/Ins are -1.
	EvBarrierRelease
	// EvCacheAccess fires per memory warp instruction with the coalesced
	// transaction outcome: Aux packs hits<<16 | misses.
	EvCacheAccess
	// EvCall fires when a group enters a callee; Aux is the callee's
	// function index.
	EvCall
	// EvRet fires when a group executes ret (including returns that exit
	// the kernel's bottom frame).
	EvRet
	// EvCTABarWait fires when lanes block at a ctabar workgroup barrier.
	// Mask is the newly blocked cohort of one warp; Bar the workgroup
	// barrier name.
	EvCTABarWait
	// EvCTABarRelease fires, once per warp with released lanes, when a
	// workgroup barrier opens (every live lane of the CTA arrived). The
	// release has no single instruction site, so PC/Fn/Blk/Ins are -1.
	EvCTABarRelease
)

func (k EventKind) String() string {
	switch k {
	case EvIssue:
		return "issue"
	case EvBranch:
		return "branch"
	case EvBarrierWait:
		return "barrier-wait"
	case EvBarrierRelease:
		return "barrier-release"
	case EvCacheAccess:
		return "cache"
	case EvCall:
		return "call"
	case EvRet:
		return "ret"
	case EvCTABarWait:
		return "ctabar-wait"
	case EvCTABarRelease:
		return "ctabar-release"
	}
	return "event(?)"
}

// Event is one simulator occurrence. Field meaning varies by Kind (see
// the EventKind constants); unused fields are zero, and location fields
// are -1 when the event has no instruction site.
type Event struct {
	Kind EventKind
	Bar  int16 // barrier register for barrier events, else -1
	// Warp is the launch-wide warp index (unique across CTAs and SMs);
	// SM and CTA locate the warp in the GPU hierarchy. Flat launches
	// report SM 0 and CTA 0, so pre-hierarchy consumers are unaffected.
	Warp int32
	SM   int32
	CTA  int32
	// PC is the dense static-instruction index (BuildPCTable order);
	// Fn/Blk/Ins locate the same instruction structurally.
	PC           int32
	Fn, Blk, Ins int32
	// FnName and BlockName alias the module's own strings.
	FnName    string
	BlockName string
	Issue     int64 // 1-based issue count at emission
	Cycle     int64 // modeled cycle when the event occurred
	Cost      int64 // EvIssue: cycles charged to this issue
	Mask      uint32
	Aux       uint32
}

// Diverged reports whether an EvBranch event split its group.
func (e Event) Diverged() bool { return e.Aux != 0 && e.Aux != e.Mask }

// EventSink receives the event stream of one launch. Event is called
// synchronously from the issue loop with a pointer to the SM's scratch
// Event, which the next event overwrites: a sink reads *ev during the call
// and must neither write it nor keep the pointer — what it wants later it
// copies, the whole Event (as SinkFunc does) or the fields it needs
// (TestSinksDoNotRetainEvent holds every sink in the repository to this).
// The strings are the module's own and outlive the launch. A sink should
// also avoid per-call allocation (the steady-state allocation guard runs
// with a counting sink attached).
type EventSink interface {
	Event(ev *Event)
}

// SinkFunc adapts a function to the EventSink interface. The function
// receives its own copy of each Event and may keep it.
type SinkFunc func(Event)

// Event implements EventSink.
func (f SinkFunc) Event(ev *Event) { f(*ev) }

// multiSink fans one stream out to several sinks, in order.
type multiSink []EventSink

func (m multiSink) Event(ev *Event) {
	for _, s := range m {
		s.Event(ev)
	}
}

// TeeSinks combines sinks into one EventSink, dropping nils. It returns
// nil when no sink remains, so the result can be assigned directly to
// Config.Events.
func TeeSinks(sinks ...EventSink) EventSink {
	kept := make([]EventSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return multiSink(kept)
}

// PCRef locates one static instruction of a module.
type PCRef struct {
	Fn, Blk, Ins int32
}

// BuildPCTable enumerates every static instruction of the module in the
// canonical dense-PC order — functions, then blocks, then instructions,
// each in layout order — and returns the index-to-location table. The
// simulator's PCs are indices into the same enumeration (walkPCs), so a
// sink can size fixed counter arrays with len(BuildPCTable(m)) and index
// them directly with Event.PC.
func BuildPCTable(m *ir.Module) []PCRef {
	out := make([]PCRef, 0, m.NumInstrs())
	walkPCs(m, func(ref PCRef, _ *ir.Block) { out = append(out, ref) })
	return out
}
