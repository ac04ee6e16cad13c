package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"

	"specrecon/internal/simt"
)

// median returns the middle value of xs (the mean of the middle two for
// an even count), 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// least returns the smallest value of xs, 0 for none. An op is a
// deterministic batch job and everything that disturbs it — another
// tenant of the host, the collector's timing — only ever adds time, so
// the fastest of a run's ops is the steady estimate of what the code
// costs: on this sandbox the median op of a run moves by up to 50% from
// minute to minute while the fastest moves by a few percent.
func least(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailSamples is how many samples must lie beyond the reported tail
// percentile for it to be more than one machine hiccup.
const tailSamples = 10

// tail returns the highest whole percentile of xs that still has at
// least tailSamples samples beyond it, with its value: p75 at 40
// samples, p90 at 100. With fewer than tailSamples+1 samples there is no
// such percentile and it returns (0, 0).
func tail(xs []float64) (pct int, value float64) {
	n := len(xs)
	if n <= tailSamples {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return 100 * (n - tailSamples) / n, s[n-tailSamples-1]
}

// simTotals sums the simulated statistics of the launches of one op.
// They are exact: a change that only speeds up the host leaves every one
// of them identical.
type simTotals struct {
	Launches        int64
	Issues          int64
	Cycles          int64
	ActiveLanes     int64
	MemTransactions int64
	CacheHits       int64
	CacheMisses     int64
	BarrierWaits    int64
}

func (t *simTotals) add(m *simt.Metrics) {
	t.Launches++
	t.Issues += m.Issues
	t.Cycles += m.Cycles
	t.ActiveLanes += m.ActiveLaneSum
	t.MemTransactions += m.MemTransactions
	t.CacheHits += m.CacheHits
	t.CacheMisses += m.CacheMisses
	t.BarrierWaits += m.BarrierWaits
}

// digest hashes the statistics an op produced, in the order they were
// written, so two ops (or two commits) can be compared by one string.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(vals ...any) {
	for _, v := range vals {
		fmt.Fprintf(d.h, "%v;", v)
	}
}

func (d *digest) String() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }
