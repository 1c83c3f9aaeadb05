#include "textflag.h"
#include "go_asm.h"

// func hasAVX() bool
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  none
	XORL CX, CX
	XGETBV               // XCR0 into DX:AX
	ANDL $6, AX          // the OS saves the XMM (bit 1) and YMM (bit 2) state
	CMPL AX, $6
	JNE  none
	MOVB $1, ret+0(FP)
	RET

none:
	MOVB $0, ret+0(FP)
	RET

// func lwRowAVX(c *lwCoef, dst, south, centre, north []float64)
//
// Four lanes of lwCoef.at per iteration, each lane the Go expression
//
//	((((u − x·(E−W)) − y·(N−S)) + xx·((E−(u+u))+W)) + yy·((N−(u+u))+S)) + xy·(((NE−NW)−SE)+SW)
//
// with the same operations in the same order on the same operands, and no
// FMA. Go's VSUBPD a, b, d computes d = b − a. Register roles: Y0 u, Y1 E,
// Y2 N, Y3 S, Y4 the current term, Y5 the running sum, Y6 u+u, Y7 W;
// Y11–Y15 the coefficients x, y, xx, yy, xy.
TEXT ·lwRowAVX(SB), NOSPLIT, $0-104
	MOVQ c+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ south_base+32(FP), SI
	MOVQ centre_base+56(FP), DX
	MOVQ centre_len+64(FP), CX
	MOVQ north_base+80(FP), R8
	SUBQ $2, CX
	JLE  done
	SHRQ $2, CX                       // groups of four interior cells
	JZ   done
	VBROADCASTSD lwCoef_x(AX), Y11
	VBROADCASTSD lwCoef_y(AX), Y12
	VBROADCASTSD lwCoef_xx(AX), Y13
	VBROADCASTSD lwCoef_yy(AX), Y14
	VBROADCASTSD lwCoef_xy(AX), Y15
	XORQ BX, BX                       // west column of the group

loop:
	VMOVUPD (DX)(BX*8), Y7            // W
	VMOVUPD 8(DX)(BX*8), Y0           // u
	VMOVUPD 16(DX)(BX*8), Y1          // E
	VMOVUPD 8(R8)(BX*8), Y2           // N
	VMOVUPD 8(SI)(BX*8), Y3           // S

	VSUBPD Y7, Y1, Y4                 // E − W
	VMULPD Y4, Y11, Y4                // x·(E−W)
	VSUBPD Y4, Y0, Y5                 // u − x·(E−W)

	VSUBPD Y3, Y2, Y4                 // N − S
	VMULPD Y4, Y12, Y4                // y·(N−S)
	VSUBPD Y4, Y5, Y5

	VADDPD Y0, Y0, Y6                 // u+u, which is 2·u exactly
	VSUBPD Y6, Y1, Y4                 // E − (u+u)
	VADDPD Y7, Y4, Y4                 // + W
	VMULPD Y4, Y13, Y4                // xx·(…)
	VADDPD Y4, Y5, Y5

	VSUBPD Y6, Y2, Y4                 // N − (u+u)
	VADDPD Y3, Y4, Y4                 // + S
	VMULPD Y4, Y14, Y4                // yy·(…)
	VADDPD Y4, Y5, Y5

	VMOVUPD 16(R8)(BX*8), Y4          // NE
	VSUBPD (R8)(BX*8), Y4, Y4         // − NW
	VSUBPD 16(SI)(BX*8), Y4, Y4       // − SE
	VADDPD (SI)(BX*8), Y4, Y4         // + SW
	VMULPD Y4, Y15, Y4                // xy·(…)
	VADDPD Y4, Y5, Y5

	VMOVUPD Y5, 8(DI)(BX*8)           // dst[i+1 … i+4]
	ADDQ $4, BX
	DECQ CX
	JNZ  loop

done:
	VZEROUPPER
	RET
