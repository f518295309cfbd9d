//go:build !purego

package cpufeat

// probed reports that this build runs the CPUID probe.
const probed = true

func init() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	POPCNT = ecx1&(1<<23) != 0
	if maxLeaf < 7 {
		return
	}
	_, ebx7, _, _ := cpuid(7, 0)
	BMI2 = ebx7&(1<<8) != 0
	// AVX-512 state is usable only if the OS enabled XSAVE and saves
	// SSE, AVX, opmask, ZMM_Hi256 and Hi16_ZMM state.
	if ecx1&(1<<27) != 0 && xgetbv()&0xe6 == 0xe6 {
		AVX512BW = ebx7&(1<<16) != 0 && ebx7&(1<<30) != 0 // AVX512F, AVX512BW
	}
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() uint32
