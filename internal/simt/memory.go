package simt

import (
	"math/bits"

	"specrecon/internal/ir"
)

// cache is a small set-associative LRU cache used to price memory
// transactions. Addresses are word indices; a warp memory instruction is
// coalesced into one transaction per distinct cache line touched by the
// active lanes (the standard GPU coalescing rule with 128-byte lines).
//
// The tags are one flat array: set s owns tags[s*Ways:(s+1)*Ways], of
// which the first fill[s] are valid, most recently used first. With
// power-of-two LineWords and Sets (the defaults) the line of an address
// is a shift and the set of a line a mask, both fixed at newCache; other
// geometries divide and take the modulo. A negative address — gatherAddrs
// can produce one before execGlobal's bounds check rejects it — always
// divides: / truncates toward zero where >> floors, and the line number
// it is priced under must not depend on the geometry's fast path.
type cache struct {
	cfg  CacheConfig
	tags []int64
	fill []uint8
	// lineShift is log2(LineWords) and setMask is Sets-1 when those are
	// powers of two, else -1.
	lineShift int
	setMask   int64
}

// maxCacheWays is the largest associativity the per-set fill count holds.
const maxCacheWays = 255

func newCache(cfg CacheConfig) *cache {
	c := &cache{
		cfg:       cfg,
		tags:      make([]int64, cfg.Sets*cfg.Ways),
		fill:      make([]uint8, cfg.Sets),
		lineShift: -1,
		setMask:   -1,
	}
	if cfg.LineWords&(cfg.LineWords-1) == 0 {
		c.lineShift = bits.TrailingZeros(uint(cfg.LineWords))
	}
	if cfg.Sets&(cfg.Sets-1) == 0 {
		c.setMask = int64(cfg.Sets - 1)
	}
	return c
}

// reset empties every set without dropping the tag array, so a reused
// launch arena starts from a cold cache with zero allocations.
func (c *cache) reset() {
	clear(c.fill)
}

// access coalesces the active lanes' addresses into line transactions,
// charges hit/miss costs and updates LRU state. It returns the added
// cycle cost and updates the metrics counters.
func (c *cache) access(addrs []int64, m *Metrics) int64 {
	if len(addrs) == 0 {
		return 0
	}
	// Collect the distinct lines in order of first appearance. Warp width
	// is tiny, so a repeat is found by scanning the array rather than in a
	// map, and most lanes are settled before that: a coalesced lane is on
	// the newest line, and a line whose 6-bit hash no earlier line of this
	// instruction had (seen) cannot be a repeat, which is nearly every
	// lane of a strided or scattered access.
	var lines [ir.WarpWidth]int64
	n := 0
	var seen uint64
outer:
	for _, a := range addrs {
		var line int64
		if c.lineShift >= 0 && a >= 0 {
			line = a >> uint(c.lineShift)
		} else {
			line = a / int64(c.cfg.LineWords)
		}
		if n > 0 && line == lines[(n-1)&laneMask] {
			continue
		}
		bit := uint64(1) << (uint64(line) * 0x9e3779b97f4a7c15 >> 58)
		if seen&bit != 0 {
			for i := n - 2; i >= 0; i-- {
				if lines[i&laneMask] == line {
					continue outer
				}
			}
		}
		seen |= bit
		lines[n&laneMask] = line
		n++
	}
	// Transactions of one warp instruction overlap in the memory
	// pipeline: the instruction is charged the slowest transaction's
	// latency plus a throughput cost per transaction beyond the first.
	hits := 0
	for _, line := range lines[:n] {
		if c.touch(line) {
			hits++
		}
	}
	m.MemTransactions += int64(n)
	m.CacheHits += int64(hits)
	m.CacheMisses += int64(n - hits)
	worst := c.cfg.MissCost
	if hits == n || (hits > 0 && worst < c.cfg.HitCost) {
		worst = c.cfg.HitCost
	}
	return int64(worst + (n-1)*c.cfg.TxThroughput)
}

// touch looks the line up, returns whether it hit, and installs it at the
// MRU position of its set.
func (c *cache) touch(line int64) bool {
	var si int
	if c.setMask >= 0 {
		si = int(line & c.setMask)
	} else {
		si = int(uint64(line) % uint64(c.cfg.Sets))
	}
	ways := c.cfg.Ways
	set := c.tags[si*ways : (si+1)*ways]
	n := int(c.fill[si])
	i := 0
	for i < n && set[i] != line {
		i++
	}
	hit := i < n
	if !hit && n < ways {
		c.fill[si]++
	} else if !hit {
		i-- // full: the LRU way is replaced
	}
	// Move (or install) to front; a hit in way 0 moves nothing.
	for ; i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = line
	return hit
}
