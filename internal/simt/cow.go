package simt

import "math/bits"

// Copy-on-write SM memory. A grid launch gives every SM a private view
// of global memory. A full copy of the initial image per SM would make
// the fixed cost of a launch scale with memWords × SMs no matter how
// little the kernel wrote; a cowMem instead shares the launch template's
// image read-only and materializes a private 4 KiB page on the first
// store to it, tracking stored words in a per-page bitmap. The
// deterministic merge walks pages in ascending index order and dirty
// bits in ascending word order — the addresses a private full copy with
// a whole-image dirty bitmap would visit, in the same order, so the
// final image and the CrossSMConflicts count are the ones that plain
// model gives (TestCoWMatchesPlainCopyModel holds it to one).
//
// The base image is never written while SMs execute (the merge runs
// after every SM retires), so concurrent SMs may read it freely.

const (
	cowPageShift = 9
	// cowPageWords is the CoW page size: 512 words = 4 KiB.
	cowPageWords = 1 << cowPageShift
	cowPageMask  = cowPageWords - 1
)

// cowPage is one materialized page: a private copy of the base page plus
// a bitmap of the words stored through it.
type cowPage struct {
	words []uint64 // nil until the first store faults the page in
	dirty []uint64 // cowPageWords/64 bitmap of stored words
}

// cowMem is one SM's copy-on-write view of global memory.
type cowMem struct {
	base  []uint64
	pages []cowPage
	// touched lists materialized page indices in fault order (merge does
	// NOT iterate it — address order matters there); reset returns their
	// buffers to free so arena reuse materializes without allocating.
	touched []int32
	free    []cowPage
}

func newCowMem(base []uint64) *cowMem {
	return &cowMem{
		base:  base,
		pages: make([]cowPage, (len(base)+cowPageMask)>>cowPageShift),
	}
}

// materialize faults page pi in: its buffer comes from the free list
// when the arena has one (dirty bitmap cleared), else is allocated, and
// the base page is copied over it. The last page may be partial; its
// tail words are never addressable (addr() bounds-checks against the
// image length) so stale free-list content there is unreachable.
func (c *cowMem) materialize(p *cowPage, pi int) {
	if n := len(c.free); n > 0 {
		*p = c.free[n-1]
		c.free = c.free[:n-1]
		for i := range p.dirty {
			p.dirty[i] = 0
		}
	} else {
		p.words = make([]uint64, cowPageWords)
		p.dirty = make([]uint64, cowPageWords/64)
	}
	start := pi << cowPageShift
	end := start + cowPageWords
	if end > len(c.base) {
		end = len(c.base)
	}
	copy(p.words[:end-start], c.base[start:end])
	c.touched = append(c.touched, int32(pi))
}

// mergeInto folds this SM's stored words into the final image in
// ascending address order: pages by index, words by dirty bit. A word an
// earlier SM already wrote with a different final value counts as a
// cross-SM conflict, exactly as the full-copy merge did.
func (c *cowMem) mergeInto(final, written []uint64, m *Metrics) {
	for pi := range c.pages {
		p := &c.pages[pi]
		if p.words == nil {
			continue
		}
		base := pi << cowPageShift
		for dw, mask := range p.dirty {
			for mm := mask; mm != 0; mm &= mm - 1 {
				off := dw*64 + bits.TrailingZeros64(mm)
				a := base + off
				v := p.words[off]
				gw, gb := a>>6, uint(a)&63
				if written[gw]&(1<<gb) != 0 && final[a] != v {
					m.CrossSMConflicts++
				}
				final[a] = v
				written[gw] |= 1 << gb
			}
		}
	}
}

// reset drops every materialized page back to the clean shared view,
// parking the buffers on the free list for the next launch.
func (c *cowMem) reset() {
	for _, pi := range c.touched {
		p := &c.pages[pi]
		c.free = append(c.free, *p)
		p.words, p.dirty = nil, nil
	}
	c.touched = c.touched[:0]
}
