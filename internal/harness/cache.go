package harness

import (
	"sync/atomic"

	"specrecon/internal/ccache"
	"specrecon/internal/core"
	"specrecon/internal/ir"
)

// The harness compiles the same modules over and over — per threshold
// point, per figure, per funnel stage — so every compile in this
// package routes through an optional process-wide compile cache. The
// pointer is atomic because figure drivers compile from worker
// goroutines; ccache.Cache itself is concurrency-safe and nil-safe, so
// the helpers below need no conditionals.
var compileCache atomic.Pointer[ccache.Cache]

// UseCompileCache installs (or, with nil, removes) the compile cache
// every harness driver compiles through. It returns the previous cache
// so callers can restore it.
func UseCompileCache(c *ccache.Cache) *ccache.Cache {
	return compileCache.Swap(c)
}

// compile builds m under opts through the installed cache: plainly, or —
// safe — through CompileSafe's verifier, repair and PDOM fallback. A
// plain build comes back in the same wrapper with nothing flagged, so a
// caller reads either kind one way; the wrapper travels by value so the
// plain path allocates nothing for it.
func compile(m *ir.Module, opts core.Options, safe bool) (core.SafeCompilation, error) {
	if !safe {
		comp, err := compileCache.Load().Compile(m, opts)
		return core.SafeCompilation{Compilation: comp}, err
	}
	sc, err := compileCache.Load().CompileSafe(m, opts)
	if err != nil {
		return core.SafeCompilation{}, err
	}
	return *sc, nil
}
