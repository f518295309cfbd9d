//go:build !purego

package bsw

// haveRow16 reports whether extendRow16 runs here: the CPU has AVX-512F
// and AVX-512BW and the OS saves the opmask and ZMM registers.
var haveRow16 = detectAVX512BW()

func detectAVX512BW() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 { // OSXSAVE
		return false
	}
	if xgetbv()&0xe6 != 0xe6 { // SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM state
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0 && ebx&(1<<30) != 0 // AVX512F, AVX512BW
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() uint32

// extendRow16 is extendRow over int16 cells, 32 columns per AVX-512BW
// instruction (extend_amd64.s). e and q hold at least len(h) elements.
// Its output equals extendRow's for every job row16Fits admits.
//
//go:noescape
func extendRow16(h, e []int16, q []int8, h1, oeDel, eDel, oeIns, eIns int16) (int16, int16, int)
