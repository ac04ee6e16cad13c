//go:build race

package corpus

// raceEnabled reports that the race detector is on: sync.Pool then
// drops a quarter of its Puts on purpose, so the allocation pin on the
// builders' pooled scratch cannot hold and is skipped.
const raceEnabled = true
