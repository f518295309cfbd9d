//go:build !amd64 || purego

package bsw

// haveGlobalVec is false: Global runs every fill in Go.
const haveGlobalVec = false

// globalJob32 has no kernel in this build, and Global never calls it.
func globalJob32(*globalJob) { panic("bsw: no global fill kernel in this build") }
