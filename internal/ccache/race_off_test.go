//go:build !race

package ccache

// RaceEnabled: see race_on_test.go.
const RaceEnabled = false
