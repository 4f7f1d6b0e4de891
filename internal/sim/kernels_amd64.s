//go:build amd64 && !purego && !amd64.v3

#include "textflag.h"

// Four-lane AVX2+FMA ports of the scalar Box-Muller and exp kernels the
// batched lognormal samplers use (lognormal_batch.go). Each lane performs
// exactly the IEEE operations of the scalar reference, in its order:
//
//   radiusAVX2: math.Sqrt(-2 * math.Log(u)), where math.Log is the amd64
//               assembly in $GOROOT/src/math/log_amd64.s;
//   angleAVX2:  r * cos2pi(u), the branch-free kernel in trig.go;
//   expAVX2:    math.Exp(x), the FMA path of $GOROOT/src/math/exp_amd64.s.
//
// Each kernel walks whole 4-lane blocks and returns how many elements it
// finished. It stops early at the first block with a lane outside the
// range where the scalar code takes its main path; the Go caller computes
// that block (and the len%4 tail) with the scalar code and re-enters.

// CONST4 defines a 32-byte read-only symbol holding four copies of the
// 64-bit pattern v, usable as a 256-bit memory operand.
#define CONST4(sym, v) \
	DATA sym+0(SB)/8, v; \
	DATA sym+8(SB)/8, v; \
	DATA sym+16(SB)/8, v; \
	DATA sym+24(SB)/8, v; \
	GLOBL sym(SB), RODATA|NOPTR, $32

// CONST4D is CONST4 for four 32-bit lanes (a 128-bit operand).
#define CONST4D(sym, v) \
	DATA sym+0(SB)/4, v; \
	DATA sym+4(SB)/4, v; \
	DATA sym+8(SB)/4, v; \
	DATA sym+12(SB)/4, v; \
	GLOBL sym(SB), RODATA|NOPTR, $16

CONST4(one<>, $1.0)
CONST4(two<>, $2.0)
CONST4(half<>, $0.5)

// Log constants, verbatim from log_amd64.s.
CONST4(logMant<>, $0x000FFFFFFFFFFFFF)
CONST4(logMagic<>, $0x4330000000000000)     // 2^52
CONST4(logMagicBias<>, $0x43300000000003FE) // 2^52 + 1022
CONST4(logHSqrt2<>, $7.07106781186547524401e-01)
CONST4(logLn2Hi<>, $6.93147180369123816490e-01)
CONST4(logLn2Lo<>, $1.90821492927058770002e-10)
CONST4(logL1<>, $6.666666666666735130e-01)
CONST4(logL2<>, $3.999999999940941908e-01)
CONST4(logL3<>, $2.857142874366239149e-01)
CONST4(logL4<>, $2.222219843214978396e-01)
CONST4(logL5<>, $1.818357216161805012e-01)
CONST4(logL6<>, $1.531383769920937332e-01)
CONST4(logL7<>, $1.479819860511658591e-01)
CONST4(negTwo<>, $-2.0)

// cos2pi constants, verbatim from trig.go; 2π and 4/π as their float64
// bit patterns (Go folds 2*math.Pi and 4/math.Pi to these).
CONST4(cosTwoPi<>, $0x401921FB54442D18)
CONST4(cosFourOverPi<>, $0x3FF45F306DC9C883)
CONST4(cosPi4A<>, $7.85398125648498535156e-1)
CONST4(cosPi4B<>, $3.77489470793079817668e-8)
CONST4(cosPi4C<>, $2.69515142907905952645e-15)
CONST4(sinS0<>, $1.58962301576546568060e-10)
CONST4(sinS1<>, $-2.50507477628578072866e-8)
CONST4(sinS2<>, $2.75573136213857245213e-6)
CONST4(sinS3<>, $-1.98412698295895385996e-4)
CONST4(sinS4<>, $8.33333333332211858878e-3)
CONST4(sinS5<>, $-1.66666666666666307295e-1)
CONST4(cosC0<>, $-1.13585365213876817300e-11)
CONST4(cosC1<>, $2.08757008419747316778e-9)
CONST4(cosC2<>, $-2.75573141792967388112e-7)
CONST4(cosC3<>, $2.48015872888517045348e-5)
CONST4(cosC4<>, $-1.38888888888730564116e-3)
CONST4(cosC5<>, $4.16666666666665929218e-2)
CONST4D(dOne<>, $1)
CONST4D(dThree<>, $3)
CONST4D(dSeven<>, $7)

// Exp constants, verbatim from exp_amd64.s.
CONST4(expOverflow<>, $7.09782712893384e+02)
CONST4(expLog2E<>, $1.4426950408889634073599246810018920)
CONST4(expLn2U<>, $0.69314718055966295651160180568695068359375)
CONST4(expLn2L<>, $0.28235290563031577122588448175013436025525412068e-12)
CONST4(expSixteenth<>, $0.0625)
CONST4(expT2<>, $1.6666666666666666667e-1)
CONST4(expT3<>, $4.1666666666666666667e-2)
CONST4(expT4<>, $8.3333333333333333333e-3)
CONST4(expT5<>, $1.3888888888888888889e-3)
CONST4(expT6<>, $1.9841269841269841270e-4)
CONST4(expT7<>, $2.4801587301587301587e-5)
CONST4(expBias<>, $0x3FF)
CONST4D(expMinK<>, $-1023) // k > -1023: archExp skips its denormal branch
CONST4D(expMaxK<>, $1024)  // k < 1024: archExp skips its overflow branch

// func radiusAVX2(zr []float64) int
TEXT ·radiusAVX2(SB), NOSPLIT, $0-32
	MOVQ zr_base+0(FP), SI
	MOVQ zr_len+8(FP), CX
	XORQ DX, DX
	VXORPD    Y14, Y14, Y14
	VMOVUPD   one<>(SB), Y15
	VMOVUPD   half<>(SB), Y13

radiusLoop:
	CMPQ CX, $4
	JLT  radiusDone
	VMOVUPD (SI), Y0

	// Every lane must satisfy 0 < u < 1.
	VCMPPD    $1, Y0, Y14, Y1
	VCMPPD    $1, Y15, Y0, Y2
	VANDPD    Y1, Y2, Y1
	VMOVMSKPD Y1, AX
	CMPQ      AX, $15
	JNE       radiusDone

	// f1, k := math.Frexp(u): f1 = mantissa | 0.5, and k = exponent - 1022
	// formed exactly as (2^52 + exponent) - (2^52 + 1022).
	VANDPD logMant<>(SB), Y0, Y2
	VORPD  Y13, Y2, Y2             // Y2 = f1 (0.5 has the bit pattern 0x3FE0<<48)
	VPSRLQ $52, Y0, Y1
	VPOR   logMagic<>(SB), Y1, Y1
	VSUBPD logMagicBias<>(SB), Y1, Y1 // Y1 = k

	// if f1 <= √2/2 { k -= 1; f1 *= 2 } — log_amd64.s's CMPSD NLT.
	VMOVUPD logHSqrt2<>(SB), Y3
	VCMPPD  $5, Y2, Y3, Y3
	VANDPD  Y15, Y3, Y3
	VSUBPD  Y3, Y1, Y1
	VADDPD  Y15, Y3, Y3
	VMULPD  Y3, Y2, Y2
	VSUBPD  Y15, Y2, Y2            // Y2 = f = f1 - 1

	// s := f / (2 + f); s2 := s * s; s4 := s2 * s2
	VADDPD two<>(SB), Y2, Y3
	VDIVPD Y3, Y2, Y3              // Y3 = s
	VMULPD Y3, Y3, Y4              // Y4 = s2
	VMULPD Y4, Y4, Y5              // Y5 = s4

	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD logL7<>(SB), Y5, Y6
	VADDPD logL5<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL3<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL1<>(SB), Y6, Y6
	VMULPD Y6, Y4, Y4              // Y4 = t1

	// t2 := s4 * (L2 + s4*(L4+s4*L6)); R := t1 + t2
	VMULPD logL6<>(SB), Y5, Y6
	VADDPD logL4<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL2<>(SB), Y6, Y6
	VMULPD Y6, Y5, Y5              // Y5 = t2
	VADDPD Y5, Y4, Y4              // Y4 = R

	// hfsq := 0.5 * f * f
	VMULPD Y13, Y2, Y7
	VMULPD Y2, Y7, Y7              // Y7 = hfsq

	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD Y7, Y4, Y4
	VMULPD Y4, Y3, Y3
	VMULPD logLn2Lo<>(SB), Y1, Y4
	VADDPD Y4, Y3, Y3
	VSUBPD Y3, Y7, Y7
	VSUBPD Y2, Y7, Y7
	VMULPD logLn2Hi<>(SB), Y1, Y1
	VSUBPD Y7, Y1, Y1              // Y1 = log(u)

	// math.Sqrt(-2 * log(u))
	VMULPD  negTwo<>(SB), Y1, Y1
	VSQRTPD Y1, Y1
	VMOVUPD Y1, (SI)

	ADDQ $32, SI
	ADDQ $4, DX
	SUBQ $4, CX
	JMP  radiusLoop

radiusDone:
	MOVQ DX, ret+24(FP)
	VZEROUPPER
	RET

// func angleAVX2(zr, cs []float64) int
TEXT ·angleAVX2(SB), NOSPLIT, $0-56
	MOVQ zr_base+0(FP), SI
	MOVQ zr_len+8(FP), CX
	MOVQ cs_base+24(FP), DI
	XORQ DX, DX
	VXORPD  Y14, Y14, Y14
	VMOVUPD one<>(SB), Y15
	VMOVUPD half<>(SB), Y13

angleLoop:
	CMPQ CX, $4
	JLT  angleDone
	VMOVUPD (DI), Y0

	// Every lane must satisfy 0 <= u < 1, so x = 2πu is in cos2pi's
	// reduction range.
	VCMPPD    $13, Y14, Y0, Y1
	VCMPPD    $1, Y15, Y0, Y2
	VANDPD    Y1, Y2, Y1
	VMOVMSKPD Y1, AX
	CMPQ      AX, $15
	JNE       angleDone

	// x := 2π·u; j := uint64(x * (4/π)), exact in int32 lanes for x < 2π.
	VMULPD      cosTwoPi<>(SB), Y0, Y0
	VMULPD      cosFourOverPi<>(SB), Y0, Y1
	VCVTTPD2DQY Y1, X1

	// j += j&1; y := float64(j); j &= 7
	VPAND    dOne<>(SB), X1, X2
	VPADDD   X2, X1, X1
	VCVTDQ2PD X1, Y2               // Y2 = y
	VPAND    dSeven<>(SB), X1, X1

	// z := ((x - y*pi4a) - y*pi4b) - y*pi4c
	VMULPD cosPi4A<>(SB), Y2, Y3
	VSUBPD Y3, Y0, Y0
	VMULPD cosPi4B<>(SB), Y2, Y3
	VSUBPD Y3, Y0, Y0
	VMULPD cosPi4C<>(SB), Y2, Y3
	VSUBPD Y3, Y0, Y0              // Y0 = z

	// sign := ((j>>2) ^ (j>>1)) & 1, widened to the float sign bit.
	VPSRLD    $2, X1, X2
	VPSRLD    $1, X1, X3
	VPXOR     X3, X2, X2
	VPAND     dOne<>(SB), X2, X2
	VPMOVZXDQ X2, Y2
	VPSLLQ    $63, Y2, Y2          // Y2 = sign mask

	// sel := (((j&3)+1)>>1) & 1, widened to an all-ones lane mask.
	VPAND     dThree<>(SB), X1, X3
	VPADDD    dOne<>(SB), X3, X3
	VPSRLD    $1, X3, X3
	VPAND     dOne<>(SB), X3, X3
	VPMOVZXDQ X3, Y3
	VPSUBQ    Y3, Y14, Y3          // Y3 = -sel

	VMULPD Y0, Y0, Y4              // Y4 = zz

	// ysin := z + z*zz*((((((S0*zz)+S1)*zz+S2)*zz+S3)*zz+S4)*zz+S5)
	VMULPD sinS0<>(SB), Y4, Y5
	VADDPD sinS1<>(SB), Y5, Y5
	VMULPD Y4, Y5, Y5
	VADDPD sinS2<>(SB), Y5, Y5
	VMULPD Y4, Y5, Y5
	VADDPD sinS3<>(SB), Y5, Y5
	VMULPD Y4, Y5, Y5
	VADDPD sinS4<>(SB), Y5, Y5
	VMULPD Y4, Y5, Y5
	VADDPD sinS5<>(SB), Y5, Y5
	VMULPD Y4, Y0, Y6
	VMULPD Y5, Y6, Y6
	VADDPD Y6, Y0, Y5              // Y5 = ysin

	// ycos := 1.0 - 0.5*zz + zz*zz*((((((C0*zz)+C1)*zz+C2)*zz+C3)*zz+C4)*zz+C5)
	VMULPD cosC0<>(SB), Y4, Y6
	VADDPD cosC1<>(SB), Y6, Y6
	VMULPD Y4, Y6, Y6
	VADDPD cosC2<>(SB), Y6, Y6
	VMULPD Y4, Y6, Y6
	VADDPD cosC3<>(SB), Y6, Y6
	VMULPD Y4, Y6, Y6
	VADDPD cosC4<>(SB), Y6, Y6
	VMULPD Y4, Y6, Y6
	VADDPD cosC5<>(SB), Y6, Y6
	VMULPD Y4, Y4, Y7
	VMULPD Y6, Y7, Y7
	VMULPD Y13, Y4, Y6
	VSUBPD Y6, Y15, Y6
	VADDPD Y7, Y6, Y6              // Y6 = ycos

	// Select the sine polynomial where sel, flip the sign bit, and scale
	// the radius in place.
	VBLENDVPD Y3, Y5, Y6, Y6
	VXORPD    Y2, Y6, Y6
	VMULPD    (SI), Y6, Y6
	VMOVUPD   Y6, (SI)

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $4, DX
	SUBQ $4, CX
	JMP  angleLoop

angleDone:
	MOVQ DX, ret+48(FP)
	VZEROUPPER
	RET

// func expAVX2(xs []float64) int
TEXT ·expAVX2(SB), NOSPLIT, $0-32
	MOVQ xs_base+0(FP), SI
	MOVQ xs_len+8(FP), CX
	XORQ DX, DX
	VMOVDQU expMinK<>(SB), X14
	VMOVDQU expMaxK<>(SB), X15

expLoop:
	CMPQ CX, $4
	JLT  expDone
	VMOVUPD (SI), Y0

	// k := int32(x * LOG2E), rounded to nearest even under MXCSR as
	// archExp's CVTSD2SL. NaN, ±Inf and huge arguments convert to
	// math.MinInt32 and so fail the k range test below.
	VMULPD     expLog2E<>(SB), Y0, Y1
	VCVTPD2DQY Y1, X3

	// Every lane must satisfy x <= Overflow and -1023 < k < 1024, so
	// archExp takes neither its overflow nor its denormal branch.
	VCMPPD    $2, expOverflow<>(SB), Y0, Y1
	VMOVMSKPD Y1, AX
	VPCMPGTD  X14, X3, X1
	VPCMPGTD  X3, X15, X2
	VPAND     X1, X2, X1
	VMOVMSKPS X1, BX
	ANDQ      BX, AX
	CMPQ      AX, $15
	JNE       expDone

	// x -= k*LN2U; x -= k*LN2L (fused, as archExp's VFNMADD231SD)
	VCVTDQ2PD    X3, Y1
	VFNMADD231PD expLn2U<>(SB), Y1, Y0
	VFNMADD231PD expLn2L<>(SB), Y1, Y0
	VMULPD       expSixteenth<>(SB), Y0, Y0

	// Taylor series, Horner form with fused multiply-adds.
	VMOVUPD     expT7<>(SB), Y1
	VFMADD213PD expT6<>(SB), Y0, Y1
	VFMADD213PD expT5<>(SB), Y0, Y1
	VFMADD213PD expT4<>(SB), Y0, Y1
	VFMADD213PD expT3<>(SB), Y0, Y1
	VFMADD213PD expT2<>(SB), Y0, Y1
	VFMADD213PD half<>(SB), Y0, Y1
	VFMADD213PD one<>(SB), Y0, Y1

	// Undo the 1/16 reduction: r *= poly, then r = r*(r + 2) three
	// times and r*(r + 2) + 1 fused, as archExp.
	VMULPD      Y1, Y0, Y0
	VADDPD      two<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      two<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      two<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      two<>(SB), Y0, Y1
	VFMADD213PD one<>(SB), Y1, Y0

	// return fr * 2**k
	VPMOVSXDQ X3, Y1
	VPADDQ    expBias<>(SB), Y1, Y1
	VPSLLQ    $52, Y1, Y1
	VMULPD    Y1, Y0, Y0
	VMOVUPD   Y0, (SI)

	ADDQ $32, SI
	ADDQ $4, DX
	SUBQ $4, CX
	JMP  expLoop

expDone:
	MOVQ DX, ret+24(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
