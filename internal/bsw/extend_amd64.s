//go:build !purego

#include "go_asm.h"
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

// func extendJob16(j *job16)
//
// extendGo's whole row loop in one call: per row i the band clamp to
// [max(beg, i-w), min(end, i+w+1, qlen)), h1 at beg == 0, the row, eh[end]
// and ee[end], gscore/maxIE, the zero-row break, the max/maxOff update,
// z-drop and the band shrink to the non-zero span. Scalar state is int64;
// cells are int16.
//
// A row runs in chunks of 32 columns c0..c0+31. Every term but F depends
// only on the previous row:
//
//	M  = Mp != 0 ? Mp + q : 0       (Mp = h[j] = H(i-1,j-1))
//	E' = max(e - eDel, M - oeDel, 0)
//	t  = max(M - oeIns, 0)
//
// q is one VPSHUFB of the target base's matrix row (mat, 16 bytes) by the
// query codes, widened to words. F(c0+l) = max(fin - l*eIns, S(l)) where
// fin = F(c0) and S is the exclusive prefix scan S(l) = max_{k<l} t(k) -
// (l-1-k)*eIns, five log steps of shift, subtract and max that do not wait
// for fin. The next chunk's fin = max(fin - 32*eIns, G(31)) with G =
// max(S - eIns, t), so the chain between chunks is one subtract and one
// max. H = max(M, e, F) is stored shifted by one column, lane 0 taking H of
// the previous chunk's last column. A tail chunk of c < 32 cells masks its
// loads with K1 (c lanes) and its stores with K6 (c+1 lanes): lane c holds
// h1 = H(i,end-1) and E' = 0, so the tail store writes eh[end] and ee[end]
// without a scalar store that the next row's loads would wait on. Each
// lane keeps its running maximum and 1 + the last column reaching it; the
// row maximum m and the last column mj reaching it come from one reduction
// of max<<16 | column+1.
//
// The band shrink reads no memory: each chunk tests its stored eh and ee
// for non-zero cells (VPTESTMW under K6), and DX/K5 and R9/K4 keep the
// address and lanes of the first and last chunk holding one. The common
// outcomes (the new beg is beg or beg+1, and j is end because h1 != 0)
// are taken by branches, which the CPU predicts, so the next row's loads
// need not wait for the masks.
//
// Job constants: Z0 zero, Z1 eDel, Z2 oeDel, Z3 oeIns, Z4..Z8 eIns*1,2,4,8,
// 16, Z9 the shift by one (lane l reads l-1 mod 32, VPERMT2W's lane 0 reads
// the first table's lane 31), Z10 1..32, Z15 32s, Z29 l*eIns, Z30 32*eIns,
// Z31 31s, K2 the lanes >= 1. Row state: Y11 the scores of the target
// base, Z14 1 + the chunk's columns, Z16 lane maxima, Z17 their columns +
// 1, Z18 fin in every lane, Z19 the previous chunk's H. R10 i, R11 beg,
// R12 end, R13 j; in the chunk loop DI, SI and R8 point at column c0 of eh,
// ee and query, and CX counts the cells left.
TEXT ·extendJob16(SB), NOSPLIT, $0-8
	MOVQ j+0(FP), R13

	VPXORQ       Z0, Z0, Z0
	MOVQ         job16_eDel(R13), AX
	VPBROADCASTW AX, Z1
	MOVQ         job16_oeDel(R13), AX
	VPBROADCASTW AX, Z2
	MOVQ         job16_oeIns(R13), AX
	VPBROADCASTW AX, Z3
	MOVQ         job16_eIns(R13), AX
	VPBROADCASTW AX, Z4
	VPADDW       Z4, Z4, Z5
	VPADDW       Z5, Z5, Z6
	VPADDW       Z6, Z6, Z7
	VPADDW       Z7, Z7, Z8
	VPADDW       Z8, Z8, Z30
	VMOVDQU16    lanes<>(SB), Z10
	VPMULLW      Z10, Z4, Z29
	VPSUBW       Z4, Z29, Z29
	MOVL         $31, AX
	VPBROADCASTW AX, Z31
	VPTERNLOGD   $0xff, Z9, Z9, Z9
	VPADDW       Z10, Z9, Z9
	VPADDW       Z31, Z9, Z9
	MOVL         $32, AX
	VPBROADCASTW AX, Z15
	MOVL         $0xfffffffe, AX
	KMOVD        AX, K2

	XORL R10, R10
	XORL R11, R11
	MOVQ job16_qlen(R13), R12
	CMPQ R10, job16_tlen(R13)
	JGE  fin

row:
	// beg = max(beg, i-w), end = min(end, i+w+1, qlen).
	MOVQ    R10, AX
	SUBQ    job16_w(R13), AX
	CMPQ    AX, R11
	CMOVQGT AX, R11
	MOVQ    R10, AX
	ADDQ    job16_w(R13), AX
	INCQ    AX
	CMPQ    AX, R12
	CMOVQLT AX, R12
	MOVQ    job16_qlen(R13), AX
	CMPQ    AX, R12
	CMOVQLT AX, R12

	// h1 = H(i,beg-1): max(h0 - oDel - eDel*(i+1), 0) at beg == 0, else 0.
	MOVQ    job16_h1(R13), BX
	MOVQ    job16_eDel(R13), AX
	SUBQ    AX, job16_h1(R13)
	XORL    AX, AX
	TESTQ   BX, BX
	CMOVQLT AX, BX
	TESTQ   R11, R11
	CMOVQNE AX, BX

	// n = end - beg cells in ceil(n/32) steps.
	MOVQ R12, CX
	SUBQ R11, CX
	ADDQ CX, job16_cells(R13)
	LEAQ 31(CX), AX
	SHRQ $5, AX
	ADDQ AX, job16_steps(R13)

	// The scores of target[i] against the query codes 0-4.
	MOVQ           job16_target(R13), AX
	MOVBLZX        (AX)(R10*1), AX
	ANDL           $7, AX
	SHLL           $4, AX
	LEAQ           job16_mat(R13), DX
	VBROADCASTI128 (DX)(AX*1), Y11

	TESTQ CX, CX
	JNE   cells
	MOVQ  BX, AX // an empty row: h1 passes through, m = 0
	XORL  BX, BX
	MOVQ  job16_h(R13), CX
	MOVW  AX, (CX)(R12*2)
	MOVQ  job16_e(R13), CX
	MOVW  $0, (CX)(R12*2)
	JMP   rowdone

cells:
	MOVQ         job16_h(R13), DI
	LEAQ         (DI)(R11*2), DI
	MOVQ         job16_e(R13), SI
	LEAQ         (SI)(R11*2), SI
	MOVQ         job16_query(R13), R8
	ADDQ         R11, R8
	VPBROADCASTW BX, Z19
	VMOVDQA64    Z10, Z14
	VPXORQ       Z16, Z16, Z16
	VPXORQ       Z17, Z17, Z17
	VPXORQ       Z18, Z18, Z18
	XORL         DX, DX
	XORL         R9, R9

chunk:
	MOVL $-1, AX
	MOVL $-1, BX
	CMPQ CX, $32
	JAE  full
	MOVL $1, AX
	SHLL CX, AX
	LEAL -1(AX)(AX*1), BX
	DECL AX

full:
	KMOVD       AX, K1
	KMOVD       BX, K6
	VMOVDQU16.Z (DI), K1, Z20
	VMOVDQU16.Z (SI), K1, Z21
	VMOVDQU8.Z  (R8), K1, Y22
	VPSHUFB     Y22, Y11, Y22
	VPMOVSXBW   Y22, Z22

	// M, E' and t.
	VPCMPW    $4, Z0, Z20, K7
	VPADDSW.Z Z22, Z20, K7, Z23
	VPSUBSW   Z1, Z21, Z24
	VPSUBSW   Z2, Z23, Z25
	VPMAXSW   Z25, Z24, Z24
	VPMAXSW   Z0, Z24, Z24
	VMOVDQU16 Z24, K6, (SI)
	VPSUBSW   Z3, Z23, Z25
	VPMAXSW   Z0, Z25, Z25

	// S, the exclusive scan of t: t shifted by 1 and by 2 lanes, then
	// shifts by 2, 4, 8 and 16 lanes, zeros shifted in.
	VPERMW.Z Z25, Z9, K2, Z26
	VALIGND  $15, Z0, Z25, Z27
	VPSUBSW  Z4, Z27, Z27
	VPMAXSW  Z27, Z26, Z26
	VALIGND  $15, Z0, Z26, Z27
	VPSUBSW  Z5, Z27, Z27
	VPMAXSW  Z27, Z26, Z26
	VALIGND  $14, Z0, Z26, Z27
	VPSUBSW  Z6, Z27, Z27
	VPMAXSW  Z27, Z26, Z26
	VALIGND  $12, Z0, Z26, Z27
	VPSUBSW  Z7, Z27, Z27
	VPMAXSW  Z27, Z26, Z26
	VALIGND  $8, Z0, Z26, Z27
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
	VMOVDQU16 Z19, K6, (DI)

	// The first and last chunks with a stored eh or ee non-zero: DX and K5,
	// R9 and K4 their addresses and non-zero lanes.
	VPORQ     Z24, Z19, Z28
	VMOVDQA64 Z27, Z19
	VPTESTMW  Z28, Z28, K6, K3
	KORTESTD  K3, K3
	JEQ       lanemax
	MOVQ      DI, R9
	KMOVD     K3, K4
	TESTQ     DX, DX
	JNE       lanemax
	MOVQ      DI, DX
	KMOVD     K3, K5

lanemax:
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
	MOVQ         R12, AX
	SUBQ         R11, AX
	DECQ         AX
	VPBROADCASTW AX, Z28
	VPERMW       Z19, Z28, Z28
	VMOVD        X28, AX
	MOVWQSX      AX, AX

	// A tail chunk stored eh[end] = h1 and ee[end] = 0 as its lane n mod
	// 32; a row of whole chunks stores them here.
	MOVQ  R12, CX
	SUBQ  R11, CX
	TESTQ $31, CX
	JNE   shrink1
	MOVQ  job16_h(R13), CX
	MOVW  AX, (CX)(R12*2)
	MOVQ  job16_e(R13), CX
	MOVW  $0, (CX)(R12*2)

shrink1:
	// The band shrink for the next row: SI = the first column in [beg,
	// end) with eh or ee non-zero, else end; DI = min(j+2, qlen) with j the
	// last such column in [SI, end], eh[end] = h1 included, else SI-1. The
	// common cases, SI = beg or beg+1 and j = end, take branches rather
	// than the masks' bit scans, so the next row need not wait for them.
	MOVQ  job16_h(R13), CX
	LEAQ  (CX)(R11*2), BX
	CMPQ  DX, BX
	JNE   begscan
	KMOVD K5, BX
	TESTL $1, BX
	JNE   beg0
	TESTL $2, BX
	JEQ   begscan
	LEAQ  1(R11), SI
	JMP   endrow

beg0:
	MOVQ R11, SI
	JMP  endrow

begscan:
	KMOVD   K5, BX
	BSFL    BX, BX
	LEAQ    (DX)(BX*2), BX
	SUBQ    CX, BX
	SHRQ    $1, BX
	MOVQ    R12, SI
	TESTQ   DX, DX
	CMOVQNE BX, SI

endrow:
	MOVQ  job16_qlen(R13), BX
	TESTQ AX, AX
	JEQ   endscan
	LEAQ  2(R12), DI
	JMP   endcap

endscan:
	LEAQ    -1(SI), DI
	KMOVD   K4, BX
	BSRL    BX, BX
	LEAQ    (R9)(BX*2), BX
	SUBQ    CX, BX
	SHRQ    $1, BX
	TESTQ   R9, R9
	CMOVQNE BX, DI
	ADDQ    $2, DI
	MOVQ    job16_qlen(R13), BX

endcap:
	CMPQ    DI, BX
	CMOVQGT BX, DI

	// The largest lane maximum<<16 | column+1 holds m and mj+1.
	VPUNPCKLWD Z16, Z17, Z12
	VPUNPCKHWD Z16, Z17, Z13
	VPMAXSD    Z13, Z12, Z12
	VSHUFI64X2 $0x4e, Z12, Z12, Z13
	VPMAXSD    Z13, Z12, Z12
	VSHUFI64X2 $0xb1, Z12, Z12, Z13
	VPMAXSD    Z13, Z12, Z12
	VPSHUFD    $0x4e, Z12, Z13
	VPMAXSD    Z13, Z12, Z12
	VPSHUFD    $0xb1, Z12, Z13
	VPMAXSD    Z13, Z12, Z12
	VMOVD      X12, BX
	MOVWQZX    BX, DX
	SHRL       $16, BX
	LEAQ       -1(R11)(DX*1), DX

rowdone:
	// AX h1, BX m, DX mj. gscore at the query's end; ties prefer the later row.
	CMPQ R12, job16_qlen(R13)
	JNE  maxrow
	CMPQ AX, job16_gscore(R13)
	JLT  maxrow
	MOVQ AX, job16_gscore(R13)
	MOVQ R10, job16_maxIE(R13)

maxrow:
	TESTQ   BX, BX
	JEQ     brk
	CMPQ    BX, job16_max(R13)
	JLE     zdrop
	MOVQ    BX, job16_max(R13)
	MOVQ    R10, job16_maxI(R13)
	MOVQ    DX, job16_maxJ(R13)
	MOVQ    DX, AX
	SUBQ    R10, AX
	MOVQ    AX, CX
	NEGQ    CX
	CMOVQLT AX, CX
	CMPQ    CX, job16_maxOff(R13)
	JLE     shrink
	MOVQ    CX, job16_maxOff(R13)
	JMP     shrink

zdrop:
	MOVQ  job16_zdrop(R13), R9
	TESTQ R9, R9
	JLE   shrink
	MOVQ  R10, AX
	SUBQ  job16_maxI(R13), AX
	MOVQ  DX, CX
	SUBQ  job16_maxJ(R13), CX
	MOVQ  job16_max(R13), R8
	SUBQ  BX, R8
	CMPQ  AX, CX
	JLE   zins
	SUBQ  CX, AX
	IMULQ job16_eDel(R13), AX
	JMP   zcmp

zins:
	SUBQ  AX, CX
	IMULQ job16_eIns(R13), CX
	MOVQ  CX, AX

zcmp:
	SUBQ AX, R8
	CMPQ R8, R9
	JGT  brk

shrink:
	MOVQ SI, R11
	MOVQ DI, R12

	INCQ R10
	CMPQ R10, job16_tlen(R13)
	JLT  row
	JMP  fin

brk:
	INCQ R10

fin:
	MOVQ R10, job16_rows(R13)
	VZEROUPPER
	RET
