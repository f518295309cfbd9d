//go:build !purego

package bsw

import "repro/internal/cpufeat"

// haveJob16 reports whether extendJob16 runs here: the CPU has AVX-512F
// and AVX-512BW and the OS saves the opmask and ZMM registers.
var haveJob16 = cpufeat.AVX512BW

// extendJob16 runs one extension job's whole row loop over int16 cells,
// 32 columns per AVX-512BW instruction (extend_amd64.s). Its results and
// counts equal extendGo's for every job row16Fits admits.
//
//go:noescape
func extendJob16(j *job16)
