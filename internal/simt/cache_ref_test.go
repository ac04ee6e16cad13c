package simt

import (
	"fmt"
	"math"
	"testing"

	"specrecon/internal/ir"
	"specrecon/internal/rng"
)

// refCache is the cache the flat tag array replaced, kept as the oracle:
// a slice of per-set slices, a divide per lane, a quadratic dedup, a
// 64-bit modulo per line and copy to move to front.
type refCache struct {
	cfg  CacheConfig
	sets [][]int64 // per-set slice of line tags, most recent first
}

func newRefCache(cfg CacheConfig) *refCache {
	return &refCache{cfg: cfg, sets: make([][]int64, cfg.Sets)}
}

func (c *refCache) access(addrs []int64, m *Metrics) int64 {
	var lines [ir.WarpWidth]int64
	n := 0
outer:
	for _, a := range addrs {
		line := a / int64(c.cfg.LineWords)
		for i := 0; i < n; i++ {
			if lines[i] == line {
				continue outer
			}
		}
		lines[n] = line
		n++
	}
	worst := 0
	for i := 0; i < n; i++ {
		m.MemTransactions++
		if c.touch(lines[i]) {
			m.CacheHits++
			if worst < c.cfg.HitCost {
				worst = c.cfg.HitCost
			}
		} else {
			m.CacheMisses++
			if worst < c.cfg.MissCost {
				worst = c.cfg.MissCost
			}
		}
	}
	if n == 0 {
		return 0
	}
	return int64(worst + (n-1)*c.cfg.TxThroughput)
}

func (c *refCache) touch(line int64) bool {
	si := int(uint64(line) % uint64(c.cfg.Sets))
	set := c.sets[si]
	for i, tag := range set {
		if tag == line {
			copy(set[1:i+1], set[:i])
			set[0] = line
			return true
		}
	}
	if len(set) < c.cfg.Ways {
		set = append(set, 0)
	}
	copy(set[1:], set)
	set[0] = line
	c.sets[si] = set
	return false
}

// tagMismatch compares the flat cache's tag order with the reference's,
// set by set.
func (c *cache) tagMismatch(ref *refCache) error {
	for si, want := range ref.sets {
		got := c.tags[si*c.cfg.Ways:][:c.fill[si]]
		if len(got) != len(want) {
			return fmt.Errorf("set %d holds %d tags, reference %d", si, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("set %d is %v, reference %v", si, got, want)
			}
		}
	}
	return nil
}

// TestFlatCacheMatchesReference drives the flat cache and the reference
// with the same address vectors — random, coalesced, strided ascending
// and descending, all on one line, with negative and huge addresses, 0
// to 32 lanes — over power-of-two and odd geometries: every access must
// cost the same and count the same hits, misses and transactions, and
// the tag order of every set must agree throughout.
func TestFlatCacheMatchesReference(t *testing.T) {
	geometries := []CacheConfig{
		{Sets: 128, Ways: 4, LineWords: 16},
		{Sets: 16, Ways: 2, LineWords: 16},
		{Sets: 12, Ways: 3, LineWords: 10},
		{Sets: 1, Ways: 1, LineWords: 1},
		{Sets: 8, Ways: 1, LineWords: 4},
		{Sets: 4, Ways: 4, LineWords: 16, HitCost: 90, MissCost: 7},
	}
	for _, geo := range geometries {
		geo = geo.withDefaults()
		name := fmt.Sprintf("%dx%dx%d", geo.Sets, geo.Ways, geo.LineWords)
		c, ref := newCache(geo), newRefCache(geo)
		var m, mref Metrics
		r := rng.New(uint64(geo.Sets*1000 + geo.LineWords))
		var buf [ir.WarpWidth]int64
		for round := 0; round < 4000; round++ {
			if round == 2000 {
				// A relaunch: both start cold again.
				c.reset()
				ref = newRefCache(geo)
			}
			addrs := buf[:r.Intn(ir.WarpWidth+1)]
			base := int64(r.Intn(1 << 12))
			switch r.Intn(8) {
			case 0: // negative, straddling zero
				base = -int64(r.Intn(64))
			case 1: // huge
				base = math.MaxInt64 - int64(r.Intn(1<<12)) - 64*ir.WarpWidth
			case 2:
				base = math.MinInt64 + int64(r.Intn(1<<12))
			}
			pattern := r.Intn(6)
			stride := int64(1 + r.Intn(40))
			for l := range addrs {
				switch pattern {
				case 0: // coalesced
					addrs[l] = base + int64(l)
				case 1: // strided ascending
					addrs[l] = base + int64(l)*stride
				case 2: // descending
					addrs[l] = base - int64(l)*stride
				case 3: // all on one line
					addrs[l] = base
				case 4: // a few lines, revisited out of order
					addrs[l] = base + int64(r.Intn(4))*int64(geo.LineWords)
				default: // scattered
					addrs[l] = base + int64(r.Intn(1<<14)) - 1<<13
				}
			}
			got, want := c.access(addrs, &m), ref.access(addrs, &mref)
			if got != want {
				t.Fatalf("%s round %d: access(%v) costs %d, reference %d", name, round, addrs, got, want)
			}
			if m.CacheHits != mref.CacheHits || m.CacheMisses != mref.CacheMisses || m.MemTransactions != mref.MemTransactions {
				t.Fatalf("%s round %d: access(%v) leaves hits/misses/transactions %d/%d/%d, reference %d/%d/%d", name, round, addrs,
					m.CacheHits, m.CacheMisses, m.MemTransactions, mref.CacheHits, mref.CacheMisses, mref.MemTransactions)
			}
			if err := c.tagMismatch(ref); err != nil {
				t.Fatalf("%s round %d: after access(%v): %v", name, round, addrs, err)
			}
		}
		if m.CacheHits == 0 || m.CacheMisses == 0 {
			t.Fatalf("%s: %d hits, %d misses: both must occur", name, m.CacheHits, m.CacheMisses)
		}
	}
}
