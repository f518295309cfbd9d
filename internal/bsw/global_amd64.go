//go:build !purego

package bsw

import "repro/internal/cpufeat"

// haveGlobalVec reports whether globalJob32 runs here: the CPU has
// AVX-512F and AVX-512BW and the OS saves the opmask and ZMM registers.
var haveGlobalVec = cpufeat.AVX512BW

// globalJob32 runs globalFill's row loop over int32 cells, 16 columns per
// AVX-512 instruction (global_amd64.s).
//
//go:noescape
func globalJob32(j *globalJob)
