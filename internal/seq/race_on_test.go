//go:build race

package seq

// raceEnabled skips allocation counts: the race detector adds its own.
const raceEnabled = true
