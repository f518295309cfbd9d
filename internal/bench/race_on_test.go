//go:build race

package bench

// raceEnabled relaxes the smoke test's time limit: the race detector slows
// the aligner several times over.
const raceEnabled = true
