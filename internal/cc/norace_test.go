//go:build !race

package cc_test

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
