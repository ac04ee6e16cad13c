package analyze

import (
	"specrecon/internal/cfg"
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
// A Facts belongs to one goroutine, and nothing handed out by a compile
// refers to it.
type Facts struct {
	m *ir.Module
	// roots is divergence.CalleeRoots(m), nil until first needed.
	roots []string
	funcs []funcFacts
}

// funcFacts is the record of one function (info.Fn); div is nil until
// asked for.
type funcFacts struct {
	info *cfg.Info
	div  *divergence.Info
}

// NewFacts returns an empty record for m. The per-function transforms
// that run outside any compile read the CFG through a record of no
// module, NewFacts(nil).
func NewFacts(m *ir.Module) *Facts { return &Facts{m: m} }

// Module returns the module the record describes.
func (fa *Facts) Module() *ir.Module { return fa.m }

// CFG returns the control-flow analyses of f, which it reindexes first.
func (fa *Facts) CFG(f *ir.Function) *cfg.Info { return fa.of(f).info }

// Divergence returns the divergence analysis of f over CFG(f).
func (fa *Facts) Divergence(f *ir.Function) *divergence.Info {
	ff := fa.of(f)
	if ff.div == nil {
		if fa.roots == nil {
			fa.roots = divergence.CalleeRoots(fa.m)
		}
		ff.div = divergence.AnalyzeWith(f, ff.info, fa.roots)
	}
	return ff.div
}

// Invalidate drops everything a change to a register definition can
// falsify: the divergence analyses and the callee-roots set.
func (fa *Facts) Invalidate() {
	fa.roots = nil
	for i := range fa.funcs {
		fa.funcs[i].div = nil
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
		fa.funcs = append(fa.funcs, funcFacts{})
	}
	ff := &fa.funcs[i]
	if ff.info == nil || !ff.info.Valid() {
		*ff = funcFacts{info: cfg.New(f)}
	}
	return ff
}
