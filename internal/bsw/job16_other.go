//go:build !amd64 || purego

package bsw

// haveJob16 is false: ExtendScalar runs every job on the Go row.
const haveJob16 = false

// extendJob16 has no kernel in this build, and ExtendScalar never calls it.
func extendJob16(*job16) { panic("bsw: no extension job kernel in this build") }
