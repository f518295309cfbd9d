//go:build !purego

#include "textflag.h"

// RANK4 writes the occurrences of the four bases among bases 0..j&127 of
// the bit-plane line at line into the [4]int at dst: the line's counts
// plus what the two 64-base words hold up to j. BZHI keeps the low
// r = j&127+1 bits of word 0 (all of them once r >= 64) and the low
// max(r-64, 0) bits of word 1, so no mask needs a shift by 64. Per word
// the planes give hi = c2+c3, lo = c1+c3 and hi&lo = c3; base 0 is the
// rest of r. Clobbers j, AX, BX, DX, R8-R13.
#define RANK4(line, j, dst) \
	ANDQ    $127, j; \
	INCQ    j; \
	XORL    R8, R8; \
	MOVQ    j, DX; \
	SUBQ    $64, DX; \
	CMOVQLT R8, DX; \
	MOVQ    16(line), R9; \
	BZHIQ   j, R9, R9; \
	MOVQ    24(line), R10; \
	BZHIQ   j, R10, R10; \
	MOVQ    32(line), R11; \
	BZHIQ   DX, R11, R11; \
	MOVQ    40(line), R12; \
	BZHIQ   DX, R12, R12; \
	POPCNTQ R9, AX; \
	POPCNTQ R11, BX; \
	ADDQ    BX, AX; \
	POPCNTQ R10, BX; \
	POPCNTQ R12, R13; \
	ADDQ    R13, BX; \
	ANDQ    R10, R9; \
	ANDQ    R12, R11; \
	POPCNTQ R9, R9; \
	POPCNTQ R11, R11; \
	ADDQ    R11, R9; \
	SUBQ    R9, AX; \
	SUBQ    R9, BX; \
	SUBQ    AX, j; \
	SUBQ    BX, j; \
	SUBQ    R9, j; \
	MOVL    0(line), R13; \
	ADDQ    R13, j; \
	MOVQ    j, 0(dst); \
	MOVL    4(line), R13; \
	ADDQ    R13, BX; \
	MOVQ    BX, 8(dst); \
	MOVL    8(line), R13; \
	ADDQ    R13, AX; \
	MOVQ    AX, 16(dst); \
	MOVL    12(line), R13; \
	ADDQ    R13, R9; \
	MOVQ    R9, 24(dst)

// func rankPair(lk, ll *occBPLine, k, l int, ck, cl *[4]int)
TEXT ·rankPair(SB), NOSPLIT, $0-48
	MOVQ lk+0(FP), SI
	MOVQ k+16(FP), CX
	MOVQ ck+32(FP), DI
	RANK4(SI, CX, DI)
	MOVQ ll+8(FP), SI
	MOVQ l+24(FP), CX
	MOVQ cl+40(FP), DI
	RANK4(SI, CX, DI)
	RET

// func prefetch2(lines *occBPLine, i, j int)
TEXT ·prefetch2(SB), NOSPLIT, $0-24
	MOVQ       lines+0(FP), AX
	MOVQ       i+8(FP), BX
	MOVQ       j+16(FP), CX
	SHLQ       $6, BX
	SHLQ       $6, CX
	PREFETCHT0 (AX)(BX*1)
	PREFETCHT0 (AX)(CX*1)
	RET
