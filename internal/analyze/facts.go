package analyze

import (
	"slices"
	"sync"

	"specrecon/internal/cfg"
	"specrecon/internal/dataflow"
	"specrecon/internal/divergence"
	"specrecon/internal/ir"
)

// Facts is the analysis record of one module: per function, the CFG
// analyses and the divergence analysis that every compiler pass, every
// check of Analyze and the efficiency estimate read, each built once
// and kept while it is still true. CFG and Divergence are the only way
// in, and validity is decided here and nowhere else:
//
//   - the CFG analyses are checked on every read against the block list
//     and edges they were built from (cfg.Info.Valid), so whatever
//     reshaped the graph since simply misses;
//   - the divergence analysis lives and dies with the cfg.Info it was
//     computed over, and is otherwise kept until Invalidate — which the
//     pass manager calls after every pass that does not declare that it
//     touches nothing but join, wait and cancel operations (the only
//     edits that change neither the graph nor any register definition).
//
// A record is also the storage its analyses, the dataflow and
// interpreter scratch of the checks, the passes' own tables and the
// efficiency estimate are built in. NewFacts takes a retired record
// from a pool and Retire clears it and puts it back, so back-to-back
// compiles rebuild in each other's storage instead of allocating their
// own; every rebuild zeroes what it reads, and a new record is a
// retired one with empty storage. A Facts belongs to one
// goroutine from NewFacts to Retire, and nothing handed out by a
// compile refers to it.
type Facts struct {
	m *ir.Module
	// roots is divergence.CalleeRoots(m) when rootsOK.
	roots   []string
	rootsOK bool
	// funcs[:len] are the functions read so far; past len lie retired
	// entries, whose storage the next functions are built in.
	funcs []funcFacts

	// scratch, states, the pairing tables and entryWaits are the
	// checks' storage and passes the passes'; est is the efficiency
	// estimate's, and kernels the sort of the low-efficiency notes.
	scratch    dataflow.Scratch
	passes     dataflow.Scratch
	states     FuncStates
	uses       []barUse
	waits      []barPos
	entryWaits map[string][]int
	est        estimator
	kernels    []string
}

// funcFacts is the record of one function (info.Fn); div is its
// divergence analysis when divOK.
type funcFacts struct {
	info  *cfg.Info
	div   *divergence.Info
	divOK bool
}

// retired holds retired records, whose storage the next NewFacts hands
// out.
var retired sync.Pool

// NewFacts returns an empty record for m, in a retired record's storage
// when one is pooled; the taker retires it. The per-function transforms
// that run outside any compile read the CFG through a record of no
// module, NewFacts(nil).
func NewFacts(m *ir.Module) *Facts {
	fa, _ := retired.Get().(*Facts)
	if fa == nil {
		fa = new(Facts)
	}
	fa.m = m
	return fa
}

// Retire clears the record (Reset(nil)) and pools it for the next
// NewFacts. Neither it nor anything it handed out may be used again.
func (fa *Facts) Retire() {
	fa.Reset(nil)
	retired.Put(fa)
}

// Reset empties the record, keeping its storage, and makes it a record
// of m. It drops every pointer into the module it described — the
// module, each CFG's function, graph and loop forest, each divergence
// analysis's function, the interpreter's and the pairing tables' — so
// a retired record keeps no module alive, and no entry of it can be
// matched to a new function by address.
func (fa *Facts) Reset(m *ir.Module) {
	for _, ff := range fa.funcs {
		ff.info.Retire()
		if ff.div != nil {
			ff.div.Fn = nil
		}
	}
	clear(fa.roots[:cap(fa.roots)])
	clear(fa.uses[:cap(fa.uses)])
	clear(fa.waits[:cap(fa.waits)])
	clear(fa.entryWaits)
	clear(fa.est.stack[:cap(fa.est.stack)])
	clear(fa.est.drained[:cap(fa.est.drained)])
	clear(fa.kernels[:cap(fa.kernels)])
	fa.states.Fn, fa.states.Div, fa.states.entryWaits = nil, nil, nil
	fa.m, fa.funcs, fa.rootsOK = m, fa.funcs[:0], false
}

// Module returns the module the record describes.
func (fa *Facts) Module() *ir.Module { return fa.m }

// CFG returns the control-flow analyses of f, which it reindexes first.
func (fa *Facts) CFG(f *ir.Function) *cfg.Info { return fa.of(f).info }

// Divergence returns the divergence analysis of f over CFG(f).
func (fa *Facts) Divergence(f *ir.Function) *divergence.Info {
	ff := fa.of(f)
	if !ff.divOK {
		if !fa.rootsOK {
			fa.roots, fa.rootsOK = divergence.CalleeRoots(fa.m, fa.roots), true
		}
		ff.div, ff.divOK = divergence.AnalyzeWith(f, ff.info, fa.roots, ff.div), true
	}
	return ff.div
}

// Scratch returns the record's dataflow storage, reset: what an analysis
// built there before is overwritten by the next.
func (fa *Facts) Scratch() *dataflow.Scratch {
	fa.scratch.Reset()
	return &fa.scratch
}

// PassScratch returns the record's second dataflow storage, reset, for
// a pass whose own tables outlive the analyses it runs in Scratch.
func (fa *Facts) PassScratch() *dataflow.Scratch {
	fa.passes.Reset()
	return &fa.passes
}

// Invalidate drops everything a change to a register definition can
// falsify: the divergence analyses and the callee-roots set.
func (fa *Facts) Invalidate() {
	fa.rootsOK = false
	for i := range fa.funcs {
		fa.funcs[i].divOK = false
	}
}

// of returns f's entry with info valid for f as it is now.
func (fa *Facts) of(f *ir.Function) *funcFacts {
	f.Reindex()
	i := 0
	for i < len(fa.funcs) && fa.funcs[i].info.Fn != f {
		i++
	}
	if i == len(fa.funcs) {
		fa.funcs = slices.Grow(fa.funcs, 1)[:i+1]
	}
	ff := &fa.funcs[i]
	if ff.info != nil && ff.info.Fn == f && ff.info.Valid() {
		return ff
	}
	if ff.info != nil && ff.info.Fn != nil {
		// Stale within this record's life: a reader may still hold it,
		// so it is left as it is and the rebuild gets new storage.
		ff.info = nil
	}
	ff.info, ff.divOK = cfg.New(f, ff.info), false
	return ff
}
