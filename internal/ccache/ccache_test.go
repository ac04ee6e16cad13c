package ccache_test

import (
	"math"
	"reflect"
	"testing"

	"specrecon/internal/ccache"
	"specrecon/internal/core"
	"specrecon/internal/ir"
	"specrecon/internal/simt"
)

const divergentKernel = `module cachetest memwords=256
func @k nregs=8 nfregs=0 {
entry:
  .predict merge
  tid r0
  and r1, r0, #3
  setlt r2, r1, #2
  cbr r2, left, right
left:
  ld r3, [r0]
  add r3, r3, #1
  st [r0], r3
  br merge
right:
  st [r0], r1
  br merge
merge:
  exit
}
`

func parse(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCachedCompilationIdenticalToFresh pins the cache's correctness
// contract: a cached compilation is the same immutable object on every
// hit, its module prints byte-identically to a fresh compile's, and
// simulating both yields identical results.
func TestCachedCompilationIdenticalToFresh(t *testing.T) {
	mod := parse(t, divergentKernel)
	for _, opts := range []core.Options{core.BaselineOptions(), core.SpecReconOptions()} {
		cache := ccache.New(0)
		first, err := cache.Diagnose(mod, opts)
		if err != nil {
			t.Fatal(err)
		}
		second, err := cache.Diagnose(mod, opts)
		if err != nil {
			t.Fatal(err)
		}
		if first != second {
			t.Error("second Diagnose returned a different object; want the cached one")
		}
		fresh, err := core.Diagnose(mod, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ir.Print(second.Module), ir.Print(fresh.Module); got != want {
			t.Errorf("cached module prints differently from fresh compile:\n%s\nvs\n%s", got, want)
		}
		cfg := simt.Config{Threads: 64, Seed: 9}
		cachedRes, err := simt.Run(second.Module, cfg)
		if err != nil {
			t.Fatal(err)
		}
		freshRes, err := simt.Run(fresh.Module, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cachedRes.Metrics, freshRes.Metrics) ||
			!reflect.DeepEqual(cachedRes.Memory, freshRes.Memory) {
			t.Error("simulation over the cached compilation diverges from the fresh one")
		}
		st := cache.Stats()
		if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
			t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
		}
	}
}

// TestKeySeparation: different options and modules must not collide.
func TestKeySeparation(t *testing.T) {
	cache := ccache.New(0)
	mod := parse(t, divergentKernel)
	if _, err := cache.Diagnose(mod, core.BaselineOptions()); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Diagnose(mod, core.SpecReconOptions()); err != nil {
		t.Fatal(err)
	}
	mod2 := parse(t, divergentKernel)
	mod2.Funcs[0].Blocks[0].Instrs[1].Imm = 7 // and r1, r0, #7
	if _, err := cache.Diagnose(mod2, core.BaselineOptions()); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits != 0 || st.Misses != 3 || st.Entries != 3 {
		t.Errorf("stats = %+v, want 0 hits / 3 misses / 3 entries", st)
	}
	// Threshold sweeps vary only ThresholdOverride; each point is its own
	// entry, and repeats hit.
	for _, th := range []int{0, 8, 24} {
		opts := core.SpecReconOptions()
		opts.ThresholdOverride = th
		for i := 0; i < 2; i++ {
			if _, err := cache.Diagnose(mod, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	st = cache.Stats()
	if st.Hits != 3 || st.Misses != 6 {
		t.Errorf("after threshold sweep: stats = %+v, want 3 hits / 6 misses", st)
	}
}

// TestKeyHashCoversStructure pins the key encoding against the text
// renderer it stands in for: any semantic edit — a successor edge, a
// prediction's threshold or target, an immediate, a block name, a
// module geometry field — must miss, and re-parsing the identical
// source must hit (content addressing, not pointer identity). Each case
// is a pair of edits of the same kernel; "a" alone is the pair (as
// parsed, a). The pairs past the structural ones sit on the encoding's
// own seams: integers either side of a varint length boundary, and
// names whose bytes read as a length prefix or as the neighbouring
// field.
func TestKeyHashCoversStructure(t *testing.T) {
	imm := func(v int64) func(m *ir.Module) {
		return func(m *ir.Module) { m.Funcs[0].Blocks[0].Instrs[1].Imm = v } // and r1, r0, #v
	}
	blockName := func(name string) func(m *ir.Module) {
		return func(m *ir.Module) { m.Funcs[0].Blocks[2].Name = name }
	}
	pairs := []struct {
		name string
		a, b func(m *ir.Module)
	}{
		{name: "swap-succs", a: func(m *ir.Module) {
			b := m.Funcs[0].Blocks[0] // entry: cbr left, right
			b.Succs[0], b.Succs[1] = b.Succs[1], b.Succs[0]
		}},
		{name: "prediction-threshold", a: func(m *ir.Module) {
			m.Funcs[0].Predictions[0].Threshold = 13
		}},
		{name: "prediction-target", a: func(m *ir.Module) {
			m.Funcs[0].Predictions[0].Label = m.Funcs[0].Blocks[1]
		}},
		{name: "drop-prediction", a: func(m *ir.Module) {
			m.Funcs[0].Predictions = nil
		}},
		{name: "block-name", a: blockName("right2")},
		{name: "memwords", a: func(m *ir.Module) {
			m.MemWords = 512
		}},
		{name: "nregs", a: func(m *ir.Module) {
			m.Funcs[0].NRegs = 9
		}},
		// A zigzag varint grows a byte between 63 and 64 and between -64
		// and -65, and again at 2^13; MinInt64 is the ten-byte extreme.
		{name: "imm-63-64", a: imm(63), b: imm(64)},
		{name: "imm-neg64-neg65", a: imm(-64), b: imm(-65)},
		{name: "imm-127-128", a: imm(127), b: imm(128)},
		{name: "imm-8191-8192", a: imm(8191), b: imm(8192)},
		{name: "imm-minint64", a: imm(math.MinInt64), b: imm(math.MinInt64 + 1)},
		{name: "imm-zero-absent", a: imm(0), b: imm(1)},
		// The presence byte: the same value in a different field.
		{name: "imm-vs-bar", a: imm(5), b: func(m *ir.Module) {
			m.Funcs[0].Blocks[0].Instrs[1].Imm = 0
			m.Funcs[0].Blocks[0].Instrs[1].Bar = 5
		}},
		{name: "float-imm", a: func(m *ir.Module) {
			m.Funcs[0].Blocks[0].Instrs[1].FImm = 0.5
		}, b: func(m *ir.Module) {
			m.Funcs[0].Blocks[0].Instrs[1].FImm = -0.5
		}},
		// Names whose bytes imitate the encoding around them: a leading
		// byte that reads as a length prefix, and a trailing byte that
		// reads as the successor count that follows the name.
		{name: "name-imitates-length", a: blockName("\x05right"), b: blockName("right")},
		{name: "name-absorbs-next-field", a: blockName("right"), b: blockName("right\x01")},
		{name: "callee-vs-next-opcode", a: func(m *ir.Module) {
			m.Funcs[0].Blocks[0].Instrs[1].Callee = "f"
		}, b: func(m *ir.Module) {
			m.Funcs[0].Blocks[0].Instrs[1].Callee = "f" + string(rune(m.Funcs[0].Blocks[0].Instrs[2].Op))
		}},
	}
	// Diagnose verifies its input unless told not to, and several edits
	// (a callee on an ALU instruction, a barrier on one) exist only to
	// move key bytes; the key does not depend on the verdict.
	opts := core.BaselineOptions()
	opts.AssumeVerified = true
	for _, tc := range pairs {
		t.Run(tc.name, func(t *testing.T) {
			edit := func(fn func(m *ir.Module)) *ir.Module {
				m := parse(t, divergentKernel)
				if fn != nil {
					fn(m)
				}
				return m
			}
			cache := ccache.New(0)
			if _, err := cache.Diagnose(edit(tc.b), opts); err != nil {
				t.Fatal(err)
			}
			// Identical content from a fresh parse must hit.
			if _, err := cache.Diagnose(edit(tc.b), opts); err != nil {
				t.Fatal(err)
			}
			if st := cache.Stats(); st.Hits != 1 {
				t.Fatalf("re-parsed identical module: stats = %+v, want 1 hit", st)
			}
			if _, err := cache.Diagnose(edit(tc.a), opts); err != nil {
				t.Fatal(err)
			}
			if st := cache.Stats(); st.Misses != 2 {
				t.Errorf("edited module: stats = %+v, want 2 misses (edit must change the key)", st)
			}
		})
	}
}

// TestKeyIgnoresStaleBlockIndex: block references are keyed by position
// in the function, read off Block.Index only where it is current — a
// module whose indices are stale (blocks moved without Reindex) keys
// exactly as the same module reindexed.
func TestKeyIgnoresStaleBlockIndex(t *testing.T) {
	opts := core.SpecReconOptions()
	opts.AssumeVerified = true // the verifier rejects stale indices; the key must not care
	cache := ccache.New(0)
	fresh, err := cache.Diagnose(parse(t, divergentKernel), opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, stale := range map[string]func(i, n int) int{
		"reversed":     func(i, n int) int { return n - 1 - i },
		"all-zero":     func(i, n int) int { return 0 },
		"out-of-range": func(i, n int) int { return n + i },
		"negative":     func(i, n int) int { return -1 - i },
	} {
		m := parse(t, divergentKernel)
		for i, b := range m.Funcs[0].Blocks {
			b.Index = stale(i, len(m.Funcs[0].Blocks))
		}
		got, err := cache.Diagnose(m, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != fresh {
			t.Errorf("%s: stale Block.Index values changed the key (miss)", name)
		}
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 4 {
		t.Errorf("stats = %+v, want 1 miss / 4 hits", st)
	}
}

// TestHitAllocatesNothing: a hit is the key and a map lookup, and the
// key is built in a pooled buffer — nothing reaches the heap.
func TestHitAllocatesNothing(t *testing.T) {
	if ccache.RaceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	cache := ccache.New(0)
	mod := parse(t, divergentKernel)
	opts := core.SpecReconOptions()
	if _, err := cache.Diagnose(mod, opts); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := cache.Diagnose(mod, opts); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("cache hit: %v allocs per lookup, want 0", allocs)
	}
}

// TestEviction: a tiny byte budget holds only the most recent entries
// and counts evictions.
func TestEviction(t *testing.T) {
	cache := ccache.New(1) // smaller than any single entry: keep-last behavior
	mod := parse(t, divergentKernel)
	if _, err := cache.Diagnose(mod, core.BaselineOptions()); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Diagnose(mod, core.SpecReconOptions()); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1 (budget smaller than one entry keeps only the newest)", st.Entries)
	}
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	// The surviving entry is the most recent one.
	if _, err := cache.Diagnose(mod, core.SpecReconOptions()); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Errorf("hits = %d, want 1 (most recent entry survived eviction)", st.Hits)
	}
}
