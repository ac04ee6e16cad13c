package core

import (
	"specrecon/internal/analyze"
	"specrecon/internal/ir"
)

// compileInto is CompilePipeline in the analysis record fa rather than
// one from the pool: the compile resets fa for its clone, and fa is
// reset again afterwards, as Retire leaves a record, without going back
// to the pool. Consecutive compiles into one fa therefore recycle the
// same storage every time, which the pool does not promise (the race
// detector drops pooled objects at random); a compile into
// new(analyze.Facts) builds in empty storage.
func compileInto(fa *analyze.Facts, m *ir.Module, opts Options, pipe *Pipeline) (*Compilation, error) {
	defer fa.Reset(nil)
	return compileIn(fa, m, opts, pipe, false)
}
