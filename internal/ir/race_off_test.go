//go:build !race

package ir_test

const raceEnabled = false
