#include "textflag.h"

// func minPlusRowAVX2(dst, src []float64, s float64)
//
// dst[j] = min(dst[j], s+src[j]) for j < len(dst). Each cell takes the same
// IEEE sum as the Go loop and VMINPD keeps the smaller of the two; they
// differ from the builtin min only on NaN and on −0. The scalar tail is
// VEX-encoded too: a legacy-SSE op with dirty upper YMM halves pays a
// state-transition penalty on every row that ends in a tail.
TEXT ·minPlusRowAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VBROADCASTSD s+48(FP), Y0
	XORQ         AX, AX

	// 8 lanes per iteration while at least 8 cells remain.
	MOVQ CX, DX
	ANDQ $-8, DX
	JZ   four

loop8:
	VADDPD  (SI)(AX*8), Y0, Y1
	VADDPD  32(SI)(AX*8), Y0, Y2
	VMINPD  (DI)(AX*8), Y1, Y1
	VMINPD  32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     loop8

four:
	// One 4-lane step when 4 to 7 cells remain.
	MOVQ    CX, DX
	SUBQ    AX, DX
	CMPQ    DX, $4
	JLT     tail
	VADDPD  (SI)(AX*8), Y0, Y1
	VMINPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX

tail:
	// At most 3 cells remain: up to three scalar steps, unrolled.
	CMPQ   AX, CX
	JGE    done
	VADDSD (SI)(AX*8), X0, X1
	VMINSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JGE    done
	VADDSD (SI)(AX*8), X0, X1
	VMINSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JGE    done
	VADDSD (SI)(AX*8), X0, X1
	VMINSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)

done:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
