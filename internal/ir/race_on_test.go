//go:build race

package ir_test

// raceEnabled reports that the race detector is on: sync.Pool then
// drops a quarter of its Puts on purpose, so the allocation pins on the
// pooled parser cannot hold and are skipped.
const raceEnabled = true
