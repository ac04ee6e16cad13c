//go:build race

package ccache

// RaceEnabled reports that the race detector is on: sync.Pool then
// drops a quarter of its Puts on purpose, so the zero-allocation pins
// on the pooled key buffer cannot hold and are skipped.
const RaceEnabled = true
