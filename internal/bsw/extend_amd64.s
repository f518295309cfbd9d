//go:build !purego

#include "textflag.h"

// lanes<> holds the int16 lane numbers 1..32.
DATA lanes<>+0(SB)/8, $0x0004000300020001
DATA lanes<>+8(SB)/8, $0x0008000700060005
DATA lanes<>+16(SB)/8, $0x000c000b000a0009
DATA lanes<>+24(SB)/8, $0x0010000f000e000d
DATA lanes<>+32(SB)/8, $0x0014001300120011
DATA lanes<>+40(SB)/8, $0x0018001700160015
DATA lanes<>+48(SB)/8, $0x001c001b001a0019
DATA lanes<>+56(SB)/8, $0x0020001f001e001d
GLOBL lanes<>(SB), RODATA|NOPTR, $64

// func extendRow16(h, e []int16, q []int8, h1, oeDel, eDel, oeIns, eIns int16) (int16, int16, int)
//
// extendRow on AVX-512BW, 32 columns c0..c0+31 per chunk. Every term but F
// depends only on the previous row:
//
//	M  = Mp != 0 ? Mp + q : 0       (Mp = h[j] = H(i-1,j-1))
//	E' = max(e - eDel, M - oeDel, 0)
//	t  = max(M - oeIns, 0)
//
// F(c0+l) = max(fin - l*eIns, S(l)) where fin = F(c0) and S is the
// exclusive prefix scan S(l) = max_{k<l} t(k) - (l-1-k)*eIns, five log
// steps of shift, subtract and max that do not wait for fin. The next
// chunk's fin = max(fin - 32*eIns, G(31)) with G = max(S - eIns, t), so the
// chain between chunks is one subtract and one max. H = max(M, e, F) is
// stored shifted by one column, lane 0 taking H of the previous chunk's
// last column. A tail chunk masks its loads and stores with K1. Each lane
// keeps its running maximum and 1 + the last column reaching it; the row
// maximum m and the last column mj reaching it come from one reduction of
// max<<16 | column+1.
//
// Z0 zero, Z1 eDel, Z2 oeDel, Z3 oeIns, Z4..Z8 eIns*1,2,4,8,16, Z9 the
// shift by one (lane l reads l-1 mod 32, VPERMT2W's lane 0 reads the first
// table's lane 31), Z10..Z13 rotations by 2, 4, 8, 16, Z14 1 + the chunk's
// columns, Z15 32s, Z16 lane maxima, Z17 their columns + 1, Z18 fin in
// every lane, Z19 the previous chunk's H, Z29 l*eIns, Z30 32*eIns, Z31 31s.
// K2..K6 select the lanes >= 1, 2, 4, 8, 16.
TEXT ·extendRow16(SB), NOSPLIT, $0-104
	MOVQ    h_base+0(FP), DI
	MOVQ    h_len+8(FP), CX
	MOVQ    e_base+24(FP), SI
	MOVQ    q_base+48(FP), R8
	MOVWQSX h1+72(FP), AX
	TESTQ   CX, CX
	JNE     setup
	MOVW    AX, ret+88(FP)
	MOVW    $0, ret1+90(FP)
	MOVQ    $-1, ret2+96(FP)
	RET

setup:
	VPBROADCASTW AX, Z19
	VPXORQ       Z0, Z0, Z0
	MOVWLZX      eDel+76(FP), AX
	VPBROADCASTW AX, Z1
	MOVWLZX      oeDel+74(FP), AX
	VPBROADCASTW AX, Z2
	MOVWLZX      oeIns+78(FP), AX
	VPBROADCASTW AX, Z3
	MOVWLZX      eIns+80(FP), AX
	VPBROADCASTW AX, Z4
	VPADDW       Z4, Z4, Z5
	VPADDW       Z5, Z5, Z6
	VPADDW       Z6, Z6, Z7
	VPADDW       Z7, Z7, Z8
	VPADDW       Z8, Z8, Z30
	VMOVDQU16    lanes<>(SB), Z14
	VPMULLW      Z14, Z4, Z29
	VPSUBW       Z4, Z29, Z29
	MOVL         $31, AX
	VPBROADCASTW AX, Z31
	VPTERNLOGD   $0xff, Z9, Z9, Z9
	VPADDW       Z14, Z9, Z9
	VPADDW       Z31, Z9, Z9
	VPERMW       Z9, Z9, Z10
	VPERMW       Z10, Z10, Z11
	VPERMW       Z11, Z11, Z12
	VPERMW       Z12, Z12, Z13
	MOVL         $32, AX
	VPBROADCASTW AX, Z15
	VPXORQ       Z16, Z16, Z16
	VPXORQ       Z17, Z17, Z17
	VPXORQ       Z18, Z18, Z18
	MOVL         $0xfffffffe, AX
	KMOVD        AX, K2
	MOVL         $0xfffffffc, AX
	KMOVD        AX, K3
	MOVL         $0xfffffff0, AX
	KMOVD        AX, K4
	MOVL         $0xffffff00, AX
	KMOVD        AX, K5
	MOVL         $0xffff0000, AX
	KMOVD        AX, K6
	MOVQ         CX, R9

chunk:
	MOVL $-1, AX
	CMPQ CX, $32
	JAE  full
	MOVL $1, AX
	SHLL CX, AX
	DECL AX

full:
	KMOVQ       AX, K1
	VMOVDQU16.Z (DI), K1, Z20
	VMOVDQU16.Z (SI), K1, Z21
	VMOVDQU8.Z  (R8), K1, Z22
	VPMOVSXBW   Y22, Z22

	// M, E' and t.
	VPCMPW    $4, Z0, Z20, K7
	VPADDSW.Z Z22, Z20, K7, Z23
	VPSUBSW   Z1, Z21, Z24
	VPSUBSW   Z2, Z23, Z25
	VPMAXSW   Z25, Z24, Z24
	VPMAXSW   Z0, Z24, Z24
	VMOVDQU16 Z24, K1, (SI)
	VPSUBSW   Z3, Z23, Z25
	VPMAXSW   Z0, Z25, Z25

	// S, the exclusive scan of t.
	VPERMW.Z Z25, Z9, K2, Z26
	VPERMW.Z Z26, Z9, K2, Z27
	VPSUBSW  Z4, Z27, Z27
	VPMAXSW  Z27, Z26, Z26
	VPERMW.Z Z26, Z10, K3, Z27
	VPSUBSW  Z5, Z27, Z27
	VPMAXSW  Z27, Z26, Z26
	VPERMW.Z Z26, Z11, K4, Z27
	VPSUBSW  Z6, Z27, Z27
	VPMAXSW  Z27, Z26, Z26
	VPERMW.Z Z26, Z12, K5, Z27
	VPSUBSW  Z7, Z27, Z27
	VPMAXSW  Z27, Z26, Z26
	VPERMW.Z Z26, Z13, K6, Z27
	VPSUBSW  Z8, Z27, Z27
	VPMAXSW  Z27, Z26, Z26

	// F = max(fin - l*eIns, S), then fin for the next chunk.
	VPSUBSW Z4, Z26, Z28
	VPMAXSW Z25, Z28, Z28
	VPERMW  Z28, Z31, Z28
	VPSUBSW Z29, Z18, Z27
	VPMAXSW Z27, Z26, Z26
	VPSUBSW Z30, Z18, Z18
	VPMAXSW Z28, Z18, Z18

	// H, stored shifted by one column.
	VPMAXSW   Z21, Z23, Z27
	VPMAXSW   Z26, Z27, Z27
	VPERMT2W  Z27, Z9, Z19
	VMOVDQU16 Z19, K1, (DI)
	VMOVDQA64 Z27, Z19

	// Lane maxima; ties take the later column.
	VPCMPW    $5, Z16, Z27, K1, K7
	VMOVDQU16 Z27, K7, Z16
	VMOVDQU16 Z14, K7, Z17
	VPADDW    Z15, Z14, Z14

	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $32, R8
	SUBQ $32, CX
	JG   chunk

	// h1 = H of the row's last column, lane (n-1) mod 32 of Z19.
	DECQ         R9
	VPBROADCASTW R9, Z28
	VPERMW       Z19, Z28, Z28
	VMOVD        X28, AX
	MOVW         AX, ret+88(FP)

	// The largest lane maximum<<16 | column+1 holds m and mj+1.
	VPUNPCKLWD Z16, Z17, Z28
	VPUNPCKHWD Z16, Z17, Z29
	VPMAXSD    Z29, Z28, Z28
	VSHUFI64X2 $0x4e, Z28, Z28, Z29
	VPMAXSD    Z29, Z28, Z28
	VSHUFI64X2 $0xb1, Z28, Z28, Z29
	VPMAXSD    Z29, Z28, Z28
	VPSHUFD    $0x4e, Z28, Z29
	VPMAXSD    Z29, Z28, Z28
	VPSHUFD    $0xb1, Z28, Z29
	VPMAXSD    Z29, Z28, Z28
	VMOVD      X28, AX
	MOVL       AX, BX
	SHRL       $16, AX
	MOVW       AX, ret1+90(FP)
	MOVWQZX    BX, BX
	DECQ       BX
	MOVQ       BX, ret2+96(FP)
	VZEROUPPER
	RET
