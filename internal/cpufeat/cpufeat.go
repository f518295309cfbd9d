// Package cpufeat reports the x86-64 instruction-set extensions the
// repository's assembly kernels use, probed once per process with CPUID
// and XGETBV. It is the one CPU probe: internal/bsw's AVX-512BW extension
// row and internal/fmindex's rank kernel both read it.
//
// Every flag is false on other architectures and under the purego build
// tag, which also drops the assembly kernels themselves.
package cpufeat

// The probed features. Each is set once, at package initialisation.
var (
	// AVX512BW: AVX-512F and AVX-512BW, with the OS saving the opmask
	// and ZMM registers.
	AVX512BW bool
	// POPCNT: the scalar population count.
	POPCNT bool
	// BMI2: BZHI and friends.
	BMI2 bool
)
