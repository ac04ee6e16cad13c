// Package ccache is a content-addressed compile cache over internal/core.
//
// Sweep-style drivers — the Figure 7/8/9 harnesses, the differential
// checker, sasmvet's corpus walk — compile the same module under the
// same options many times: once per threshold point, per launch shape,
// per repeat. A Cache keys each compilation by what actually determines
// its output — a canonical binary encoding of the input module's IR,
// the pass pipeline spec, and a fingerprint of the Options — and memoizes the
// immutable *core.Compilation, so an N-point sweep over one kernel
// compiles it once per distinct pipeline rather than once per point.
//
// Cached compilations are shared: callers must treat a returned
// Compilation (module included) as immutable, which every driver in
// this repository already does — the simulator clones nothing because
// it never writes the module, and reports only read the result.
//
// Entries are evicted least-recently-used once the byte budget is
// exceeded (an entry is charged the measured length of its printed
// module plus a flat cost per report row). Every method is nil-safe: a
// nil *Cache simply forwards to core, so call sites thread an optional
// cache without conditionals. A Cache is safe for concurrent use;
// compilation runs outside the lock, and concurrent misses on the same
// key keep the first inserted result.
package ccache

import (
	"container/list"
	"crypto/sha256"
	"encoding/json"
	"io"
	"sync"

	"specrecon/internal/core"
	"specrecon/internal/ir"
)

// DefaultMaxBytes is the byte budget used when New is given a
// non-positive budget: large enough for every corpus in the repo,
// small enough to bound a long-running sweep daemon.
const DefaultMaxBytes = 256 << 20

// Stats is a snapshot of the cache's counters.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
}

type entry struct {
	key  [sha256.Size]byte
	val  any
	size int64
}

// Cache memoizes compilations. The zero value is not usable; construct
// with New. A nil *Cache is valid and forwards every call to core.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	lru      *list.List // front = most recent; values are *entry
	byKey    map[[sha256.Size]byte]*list.Element
	stats    Stats
}

// New builds a cache holding at most maxBytes of estimated compilation
// state (DefaultMaxBytes when maxBytes <= 0).
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		maxBytes: maxBytes,
		lru:      list.New(),
		byKey:    map[[sha256.Size]byte]*list.Element{},
	}
}

// compSize is the bytes an entry is charged against the LRU budget:
// the measured length of the printed module (hash.go: printed into the
// pooled buffer, never built as a string) plus a flat cost per report
// row — consistent enough for the budget to track real growth.
func compSize(c *core.Compilation) int64 {
	n := int64(printedLen(c.Module)) + 256
	n += 64 * int64(len(c.Barriers)+len(c.Conflicts)+len(c.PassStats))
	for _, r := range c.Remarks {
		n += 64 + int64(len(r.Msg))
	}
	for _, d := range c.Diagnostics {
		n += 128 + int64(len(d.Msg))
	}
	return n
}

// lookup returns the cached value for k, updating recency and counters.
func (c *Cache) lookup(k [sha256.Size]byte) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*entry).val, true
	}
	c.stats.Misses++
	return nil, false
}

// insert stores val under k unless a concurrent compile won the race,
// in which case the existing value is adopted (so every caller shares
// one Compilation). Eviction never removes the entry just inserted.
func (c *Cache) insert(k [sha256.Size]byte, val any, size int64) any {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*entry).val
	}
	el := c.lru.PushFront(&entry{key: k, val: val, size: size})
	c.byKey[k] = el
	c.bytes += size
	for c.bytes > c.maxBytes && c.lru.Len() > 1 {
		back := c.lru.Back()
		e := back.Value.(*entry)
		c.lru.Remove(back)
		delete(c.byKey, e.key)
		c.bytes -= e.size
		c.stats.Evictions++
	}
	return val
}

// Compile is core.Compile through the cache.
func (c *Cache) Compile(m *ir.Module, opts core.Options) (*core.Compilation, error) {
	if c == nil {
		return core.Compile(m, opts)
	}
	return c.CompilePipeline(m, opts, core.PipelineFor(opts))
}

// CompilePipeline is core.CompilePipeline through the cache.
func (c *Cache) CompilePipeline(m *ir.Module, opts core.Options, pipe *core.Pipeline) (*core.Compilation, error) {
	if c == nil {
		return core.CompilePipeline(m, opts, pipe)
	}
	k := key("pipeline", pipe.Spec(), opts, m)
	if v, ok := c.lookup(k); ok {
		return v.(*core.Compilation), nil
	}
	comp, err := core.CompilePipeline(m, opts, pipe)
	if err != nil {
		return nil, err
	}
	return c.insert(k, comp, compSize(comp)).(*core.Compilation), nil
}

// CompileSafe is core.CompileSafe through the cache. Fallback builds
// cache like any other: the same (module, options) deterministically
// falls back again.
func (c *Cache) CompileSafe(m *ir.Module, opts core.Options) (*core.SafeCompilation, error) {
	if c == nil {
		return core.CompileSafe(m, opts)
	}
	k := key("safe", core.SafePipelineFor(opts).Spec(), opts, m)
	if v, ok := c.lookup(k); ok {
		return v.(*core.SafeCompilation), nil
	}
	comp, err := core.CompileSafe(m, opts)
	if err != nil {
		return nil, err
	}
	return c.insert(k, comp, compSize(comp.Compilation)).(*core.SafeCompilation), nil
}

// Diagnose is core.Diagnose through the cache.
func (c *Cache) Diagnose(m *ir.Module, opts core.Options) (*core.Compilation, error) {
	if c == nil {
		return core.Diagnose(m, opts)
	}
	k := key("diagnose", "", opts, m)
	if v, ok := c.lookup(k); ok {
		return v.(*core.Compilation), nil
	}
	comp, err := core.Diagnose(m, opts)
	if err != nil {
		return nil, err
	}
	return c.insert(k, comp, compSize(comp)).(*core.Compilation), nil
}

// Stats snapshots the counters. Nil-safe (zero stats).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.lru.Len()
	st.Bytes = c.bytes
	st.MaxBytes = c.maxBytes
	return st
}

// WriteStatsJSON writes the Stats snapshot as indented JSON, the format
// the cache-smoke make target and the -cache-stats flags consume.
func (c *Cache) WriteStatsJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c.Stats())
}
