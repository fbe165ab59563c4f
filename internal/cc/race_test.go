//go:build race

package cc_test

// raceEnabled reports a -race build: the detector slows the front end
// several times over, so wall-clock bounds hold only without it.
const raceEnabled = true
