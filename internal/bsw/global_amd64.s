//go:build !purego

#include "go_asm.h"
#include "textflag.h"

// NEG fills the lanes the F scan shifts in. It lies below every value
// globalJob32 computes (globalVecFits keeps those at or above -2^30), and
// stays in int32 after the scan subtracts 8*eIns from it.
#define NEG $-1610612736

// lanes32<> holds the int32 lane numbers 0..15.
DATA lanes32<>+0(SB)/8, $0x0000000100000000
DATA lanes32<>+8(SB)/8, $0x0000000300000002
DATA lanes32<>+16(SB)/8, $0x0000000500000004
DATA lanes32<>+24(SB)/8, $0x0000000700000006
DATA lanes32<>+32(SB)/8, $0x0000000900000008
DATA lanes32<>+40(SB)/8, $0x0000000b0000000a
DATA lanes32<>+48(SB)/8, $0x0000000d0000000c
DATA lanes32<>+56(SB)/8, $0x0000000f0000000e
GLOBL lanes32<>(SB), RODATA|NOPTR, $64

// func globalJob32(j *globalJob)
//
// globalFill's row loop in one call: per row i the band clamp to
// [max(i-w, lo), min(i+w+1, hi+2, qlen)), h1 at beg == 0, the row, the
// F-only tail and the narrowing to the row's live span. Scalar state is
// int64; cells are int32, 16 to an instruction.
//
// A row runs in chunks of 16 columns c0..c0+15. Every term but F depends
// only on the previous row:
//
//	M  = h[j] + q                  (h[j] = H(i-1,j-1))
//	E' = max(e - eDel, M - oeDel)  (bit 2: e - eDel wins)
//	t  = M - oeIns
//
// Gaps open from M, so F(c0+l) = max(fin - l*eIns, G(l-1)) with fin =
// F(c0) and G the inclusive scan G(l) = max_{k<=l} t(k) - (l-k)*eIns:
// four log steps of shift, subtract and max that do not wait for fin. The
// next chunk's fin is max(fin - 16*eIns, G(15)), so the chain between
// chunks is one subtract and one max. Bit 5 is F - eIns > t, and H =
// max(M, e, F) with bit 0 for M < e and bit 1 for max(M, e) <= F, which
// clears bit 0: ties go to F. H is stored shifted by one column, lane 0
// taking H of the previous chunk's last column. A chunk of c < 16 cells
// masks its loads and stores with K1 (c lanes); its F lane c is F(end).
//
// A cell (i,j) with score v is live when v >= max(thrRow + a*i, thrCol +
// a*(j+1)), the floor less the most the cell could still gain. Each chunk
// tests its H lanes; DX takes the first live column (-1 for column -1,
// -2 while none) and R14 the last.
//
// The tail extends the row while F(end) is live, 16 columns at a time:
// there F = f - l*eIns, a cell is H = F with bits 2|1<<5 and E' =
// minusInf, and the live lanes are a prefix (the first dead one stops
// the Go loop). One masked store per array writes the n live cells and,
// in lane n, h[end] = H(i,end-1) and e[end] = minusInf.
//
// Job constants: Z1 eDel, Z2 oeDel, Z3 oeIns, Z4..Z8 eIns*1,2,4,8,16,
// Z9 l*eIns, Z10 l*a, Z11 16*a, Z12 minusInf, Z13 15s, Z14 NEG, Z24..Z27
// the direction bits 1, 2, 4 and 32, Z28 the tail's direction byte. Row
// state: Z16 the row's threshold, Z17 the chunk's column thresholds, Z18
// fin, Z19 the previous chunk's H. R10 i, R11 beg (lo between rows), R12
// end (hi between rows), DI h, SI e, R8 the query, X15 the scores of
// target[i] against the query codes 0-4 (a byte shuffle turns query codes
// into scores), R9 the direction row (column 0 of the band's row), BX c0.
TEXT ·globalJob32(SB), NOSPLIT, $0-8
	MOVQ j+0(FP), R13

	MOVQ         globalJob_eDel(R13), AX
	VPBROADCASTD AX, Z1
	MOVQ         globalJob_oeDel(R13), AX
	VPBROADCASTD AX, Z2
	MOVQ         globalJob_oeIns(R13), AX
	VPBROADCASTD AX, Z3
	MOVQ         globalJob_eIns(R13), AX
	VPBROADCASTD AX, Z4
	VPADDD       Z4, Z4, Z5
	VPADDD       Z5, Z5, Z6
	VPADDD       Z6, Z6, Z7
	VPADDD       Z7, Z7, Z8
	VMOVDQU32    lanes32<>(SB), Z15
	VPMULLD      Z15, Z4, Z9
	MOVQ         globalJob_a(R13), AX
	VPBROADCASTD AX, Z10
	VPSLLD       $4, Z10, Z11
	VPMULLD      Z15, Z10, Z10
	MOVL         $const_minusInf, AX
	VPBROADCASTD AX, Z12
	MOVL         $15, AX
	VPBROADCASTD AX, Z13
	MOVL         NEG, AX
	VPBROADCASTD AX, Z14
	MOVL         $1, AX
	VPBROADCASTD AX, Z24
	MOVL         $2, AX
	VPBROADCASTD AX, Z25
	MOVL         $4, AX
	VPBROADCASTD AX, Z26
	MOVL         $32, AX
	VPBROADCASTD AX, Z27
	MOVL         $0x22, AX
	VPBROADCASTB AX, Z28

	MOVQ globalJob_h(R13), DI
	MOVQ globalJob_e(R13), SI
	MOVQ globalJob_query(R13), R8
	MOVQ globalJob_lo(R13), R11
	MOVQ globalJob_hi(R13), R12
	XORL R10, R10

row:
	CMPQ R10, globalJob_tlen(R13)
	JGE  done
	CMPQ R11, R12
	JGT  done

	// beg = max(i-w, 0, lo) with bandBeg = max(i-w, 0) in AX; end =
	// min(i+w+1, qlen, hi+2).
	MOVQ    R10, AX
	SUBQ    globalJob_w(R13), AX
	XORL    CX, CX
	TESTQ   AX, AX
	CMOVQLT CX, AX
	CMPQ    AX, R11
	CMOVQGT AX, R11
	MOVQ    R10, CX
	ADDQ    globalJob_w(R13), CX
	INCQ    CX
	CMPQ    CX, globalJob_qlen(R13)
	CMOVQGT globalJob_qlen(R13), CX
	ADDQ    $2, R12
	CMPQ    R12, CX
	CMOVQGT CX, R12
	CMPQ    R11, R12
	JGE     nocells

	// R9 = the direction row less bandBeg, X15 = the scores of target[i]
	// against the query codes 0-4.
	MOVQ    R10, R9
	IMULQ   globalJob_nCol(R13), R9
	SUBQ    AX, R9
	ADDQ    globalJob_z(R13), R9
	MOVQ    globalJob_target(R13), CX
	MOVBLZX (CX)(R10*1), CX
	ANDL    $7, CX
	SHLL    $4, CX
	VMOVDQU globalJob_mat(R13)(CX*1), X15

	// Thresholds: Z16 the row's, Z17 columns beg.., AX the row's scalar.
	MOVQ         globalJob_a(R13), AX
	IMULQ        R10, AX
	ADDQ         globalJob_thrRow(R13), AX
	VPBROADCASTD AX, Z16
	LEAQ         1(R11), CX
	IMULQ        globalJob_a(R13), CX
	ADDQ         globalJob_thrCol(R13), CX
	VPBROADCASTD CX, Z17
	VPADDD       Z10, Z17, Z17

	// h1 = H(i,beg-1): -(oDel + eDel*(i+1)) at beg == 0, where column -1
	// is live if h1 reaches its threshold, else minusInf.
	MOVQ  $-2, DX
	MOVQ  $-1, R14
	MOVL  $const_minusInf, CX
	TESTQ R11, R11
	JNE   h1
	MOVQ  R10, CX
	IMULQ globalJob_eDel(R13), CX
	ADDQ  globalJob_oeDel(R13), CX
	NEGQ  CX
	MOVQ  globalJob_thrCol(R13), BX
	CMPQ  AX, BX
	CMOVQGT AX, BX
	CMPQ  CX, BX
	JLT   h1
	MOVQ  $-1, DX

h1:
	VPBROADCASTD CX, Z19
	VMOVDQA64    Z12, Z18
	MOVQ         R11, BX

chunk:
	MOVQ R12, CX
	SUBQ BX, CX
	MOVL $0xffff, AX
	CMPQ CX, $16
	JAE  full
	MOVL $1, AX
	SHLL CX, AX
	DECL AX

full:
	KMOVW       AX, K1
	VMOVDQU32.Z (DI)(BX*4), K1, Z20
	VMOVDQU32.Z (SI)(BX*4), K1, Z21
	VMOVDQU8.Z  (R8)(BX*1), K1, X22
	VPSHUFB     X22, X15, X22
	VPMOVSXBD   X22, Z22
	VPADDD      Z22, Z20, Z20

	// E' and bit 2.
	VPSUBD    Z1, Z21, Z22
	VPSUBD    Z2, Z20, Z23
	VPCMPD    $6, Z23, Z22, K3
	VPMAXSD   Z23, Z22, Z22
	VMOVDQU32 Z22, K1, (SI)(BX*4)

	// t, and G: t and its shifts by 1, 2, 4 and 8 lanes, NEG shifted in.
	VPSUBD  Z3, Z20, Z23
	VALIGND $15, Z14, Z23, Z29
	VPSUBD  Z4, Z29, Z29
	VPMAXSD Z23, Z29, Z29
	VALIGND $14, Z14, Z29, Z30
	VPSUBD  Z5, Z30, Z30
	VPMAXSD Z30, Z29, Z29
	VALIGND $12, Z14, Z29, Z30
	VPSUBD  Z6, Z30, Z30
	VPMAXSD Z30, Z29, Z29
	VALIGND $8, Z14, Z29, Z30
	VPSUBD  Z7, Z30, Z30
	VPMAXSD Z30, Z29, Z29

	// F = max(fin - l*eIns, G(l-1)), then fin for the next chunk.
	VALIGND $15, Z14, Z29, Z30
	VPSUBD  Z9, Z18, Z31
	VPMAXSD Z31, Z30, Z30
	VPERMD  Z29, Z13, Z31
	VPSUBD  Z8, Z18, Z18
	VPMAXSD Z31, Z18, Z18

	// Bit 5, then H = max(M, e, F) with bits 0 and 1.
	VPSUBD  Z4, Z30, Z31
	VPCMPD  $6, Z23, Z31, K4
	VPMAXSD Z21, Z20, Z31
	VPCMPD  $1, Z21, Z20, K5
	VPCMPD  $2, Z30, Z31, K6
	VPMAXSD Z30, Z31, Z31

	// The direction bytes.
	KANDNW      K5, K6, K5
	VMOVDQA32.Z Z24, K5, Z20
	VMOVDQA32   Z25, K6, Z20
	VPORD       Z26, Z20, K3, Z20
	VPORD       Z27, Z20, K4, Z20
	VPMOVDB     Z20, K1, (R9)(BX*1)

	// H, stored shifted by one column.
	VALIGND   $15, Z19, Z31, Z20
	VMOVDQU32 Z20, K1, (DI)(BX*4)
	VMOVDQA64 Z31, Z19

	// The chunk's live cells.
	VPMAXSD Z16, Z17, Z20
	VPADDD  Z11, Z17, Z17
	VPCMPD  $5, Z20, Z31, K1, K2
	KMOVW   K2, AX
	TESTL   AX, AX
	JEQ     next
	BSRL    AX, R14
	ADDQ    BX, R14
	CMPQ    DX, $-2
	JNE     next
	BSFL    AX, DX
	ADDQ    BX, DX

next:
	ADDQ $16, BX
	CMPQ BX, R12
	JLT  chunk

	// Z21 = H(i,end-1), lane (end-beg-1) mod 16 of the last chunk; Z18 =
	// F(i,end), its lane (end-beg) mod 16, or fin after a whole chunk.
	MOVQ         R12, AX
	SUBQ         BX, AX
	ADDQ         $15, AX
	VPBROADCASTD AX, Z20
	VPERMD       Z19, Z20, Z21
	CMPQ         AX, $15
	JEQ          tailstart
	INCL         AX
	VPBROADCASTD AX, Z20
	VPERMD       Z30, Z20, Z18

tailstart:
	MOVQ R12, BX

tail:
	// K1 = the band's columns among end..end+15: bandEnd = min(i+w+1, qlen).
	MOVQ    R10, CX
	ADDQ    globalJob_w(R13), CX
	INCQ    CX
	CMPQ    CX, globalJob_qlen(R13)
	CMOVQGT globalJob_qlen(R13), CX
	SUBQ    R12, CX
	MOVL    $0xffff, AX
	CMPQ    CX, $16
	JAE     tailfull
	MOVL    $1, AX
	SHLL    CX, AX
	DECL    AX

tailfull:
	KMOVW        AX, K1
	VPSUBD       Z9, Z18, Z20
	LEAQ         1(R12), AX
	IMULQ        globalJob_a(R13), AX
	ADDQ         globalJob_thrCol(R13), AX
	VPBROADCASTD AX, Z22
	VPADDD       Z10, Z22, Z22
	VPMAXSD      Z16, Z22, Z22
	VPCMPD       $5, Z22, Z20, K1, K2

	// n = the live prefix: K3 its lanes, K4 one more.
	KMOVW     K2, AX
	NOTL      AX
	BSFL      AX, CX
	MOVL      $1, AX
	SHLL      CX, AX
	DECL      AX
	KMOVW     AX, K3
	LEAL      1(AX)(AX*1), AX
	KMOVW     AX, K4
	VALIGND   $15, Z21, Z20, Z23
	VMOVDQU32 Z23, K4, (DI)(R12*4)
	VMOVDQU32 Z12, K4, (SI)(R12*4)
	VMOVDQU8  X28, K3, (R9)(R12*1)
	ADDQ      CX, R12
	CMPQ      CX, $16
	JNE       narrow
	VPERMD    Z20, Z13, Z21
	VPSUBD    Z8, Z18, Z18
	JMP       tail

narrow:
	// lo = the first live column, or the body's end (BX) when none is
	// live before the tail; hi = end-1 after a tail, else the last live
	// column of the body (-1 when none).
	CMPQ    DX, $-2
	CMOVQEQ BX, DX
	LEAQ    -1(R12), AX
	CMPQ    R12, BX
	CMOVQNE AX, R14
	MOVQ    R12, globalJob_end(R13)
	MOVQ    DX, R11
	MOVQ    R14, R12
	INCQ    R10
	JMP     row

nocells:
	MOVQ $-1, R10

done:
	MOVQ R10, globalJob_rows(R13)
	VZEROUPPER
	RET
