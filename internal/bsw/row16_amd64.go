//go:build !purego

package bsw

import "repro/internal/cpufeat"

// haveRow16 reports whether extendRow16 runs here: the CPU has AVX-512F
// and AVX-512BW and the OS saves the opmask and ZMM registers.
var haveRow16 = cpufeat.AVX512BW

// extendRow16 is extendRow over int16 cells, 32 columns per AVX-512BW
// instruction (extend_amd64.s). e and q hold at least len(h) elements.
// Its output equals extendRow's for every job row16Fits admits.
//
//go:noescape
func extendRow16(h, e []int16, q []int8, h1, oeDel, eDel, oeIns, eIns int16) (int16, int16, int)
