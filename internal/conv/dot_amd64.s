#include "textflag.h"

// func dot4(dst *[4]complex128, tp, ts, w []complex128)
//
// X0-X3 hold the four row accumulators [re, im]. Each iteration loads
// w[k] once, splits it into X4 = [vr, vr] and X5 = [vi, vi], and adds
// tp[4k+r]*X4 + ts[4k+r]*X5 into row r. Operands are loaded with MOVUPD,
// since Go aligns complex128 only to 8 bytes.
TEXT ·dot4(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ tp_base+8(FP), SI
	MOVQ ts_base+32(FP), DX
	MOVQ w_base+56(FP), BX
	MOVQ w_len+64(FP), CX
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	TESTQ CX, CX
	JEQ   done4

loop4:
	MOVUPD   (BX), X4
	MOVAPD   X4, X5
	UNPCKLPD X4, X4
	UNPCKHPD X5, X5

	MOVUPD 0(SI), X6
	MOVUPD 0(DX), X7
	MULPD  X4, X6
	MULPD  X5, X7
	ADDPD  X7, X6
	ADDPD  X6, X0

	MOVUPD 16(SI), X8
	MOVUPD 16(DX), X9
	MULPD  X4, X8
	MULPD  X5, X9
	ADDPD  X9, X8
	ADDPD  X8, X1

	MOVUPD 32(SI), X10
	MOVUPD 32(DX), X11
	MULPD  X4, X10
	MULPD  X5, X11
	ADDPD  X11, X10
	ADDPD  X10, X2

	MOVUPD 48(SI), X12
	MOVUPD 48(DX), X13
	MULPD  X4, X12
	MULPD  X5, X13
	ADDPD  X13, X12
	ADDPD  X12, X3

	ADDQ $16, BX
	ADDQ $64, SI
	ADDQ $64, DX
	DECQ CX
	JNE  loop4

done4:
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	RET

// func dot1(dst *complex128, tp, ts, w []complex128)
//
// The one-row form of dot4: X0 accumulates tp[k]*[vr,vr] + ts[k]*[vi,vi].
TEXT ·dot1(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ tp_base+8(FP), SI
	MOVQ ts_base+32(FP), DX
	MOVQ w_base+56(FP), BX
	MOVQ w_len+64(FP), CX
	XORPD X0, X0
	TESTQ CX, CX
	JEQ   done1

loop1:
	MOVUPD   (BX), X4
	MOVAPD   X4, X5
	UNPCKLPD X4, X4
	UNPCKHPD X5, X5
	MOVUPD   (SI), X6
	MOVUPD   (DX), X7
	MULPD    X4, X6
	MULPD    X5, X7
	ADDPD    X7, X6
	ADDPD    X6, X0
	ADDQ     $16, BX
	ADDQ     $16, SI
	ADDQ     $16, DX
	DECQ     CX
	JNE      loop1

done1:
	MOVUPD X0, (DI)
	RET
