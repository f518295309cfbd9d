//go:build race

package core

// raceEnabled skips allocation counts: under the race detector sync.Pool
// drops a share of what is put back on purpose, so pooled scratch
// reallocates at random.
const raceEnabled = true
