//go:build race

package core

// raceEnabled reports that the race detector is on: sync.Pool then
// drops a quarter of its Puts on purpose, so the allocation pins on
// pooled analysis records cannot hold and are skipped.
const raceEnabled = true
