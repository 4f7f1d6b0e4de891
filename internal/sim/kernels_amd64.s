//go:build amd64 && !purego && !amd64.v3

#include "textflag.h"

// Vector ports of the scalar passes the batched lognormal samplers use
// (lognormal_batch.go), in two kernel tiers (kernels_amd64.go). TierAVX2
// runs three four-lane AVX2+FMA pass kernels; TierAVX512 runs the
// eight-pair AVX-512 uniform kernel and one fused eight-lane kernel that
// does the work of all three passes and the exp-argument step in one go.
// Each lane performs exactly the operations of the scalar reference, in
// its order:
//
//   uniformsAVX512:  the Box-Muller uniform pairs, RNG.Float64 (splitmix64);
//   radiusAVX2:      math.Sqrt(-2 * math.Log(u)), where math.Log is the
//                    amd64 assembly in $GOROOT/src/math/log_amd64.s;
//   angleAVX2:       r * cos2pi(u), the branch-free kernel in trig.go;
//   expAVX2:         math.Exp(x), the FMA path of
//                    $GOROOT/src/math/exp_amd64.s;
//   lognormalAVX512: math.Exp(mu + sigma*(radius * cos2pi(u2))), the
//                    radius, angle and exp ports above in 512-bit lanes.
//
// At TierAVX512 three more eight-lane kernels compute the engine's
// operating points (oppoint.go):
//
//   erlangBAVX512:      the Erlang-B recursion of queueing's erlangBStep;
//   powAVX512:          math.Pow down its general path for non-integer
//                       y, over the log and exp ports above;
//   lognormalFitAVX512: NewLognormal's fit, two logs and a square root.
//
// Each kernel walks whole blocks and returns how many elements it
// finished. It stops early at the first block with a lane outside the
// range where the scalar code takes its main path; the Go caller computes
// that block (and the tail) with the scalar code and re-enters
// (NewLognormals finishes the rest of its batch in Go instead). Every
// instruction is VEX- or EVEX-encoded (a legacy-SSE instruction among them
// costs an SSE/AVX transition per block), the AVX-512 kernels use only
// Z0-Z15, and every kernel ends with VZEROUPPER.

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

// CONST8 defines a 64-byte read-only symbol from eight 64-bit patterns,
// usable as a 512-bit memory operand.
#define CONST8(sym, v0, v1, v2, v3, v4, v5, v6, v7) \
	DATA sym+0(SB)/8, v0; \
	DATA sym+8(SB)/8, v1; \
	DATA sym+16(SB)/8, v2; \
	DATA sym+24(SB)/8, v3; \
	DATA sym+32(SB)/8, v4; \
	DATA sym+40(SB)/8, v5; \
	DATA sym+48(SB)/8, v6; \
	DATA sym+56(SB)/8, v7; \
	GLOBL sym(SB), RODATA|NOPTR, $64

// j·γ mod 2^64 for j = 1..8 and 9..16, where γ = 0x9E3779B97F4A7C15 is
// the splitmix64 increment: the j-th Uint64 after state s mixes s + j·γ.
CONST8(uniStepLo<>, $0x9E3779B97F4A7C15, $0x3C6EF372FE94F82A, $0xDAA66D2C7DDF743F, $0x78DDE6E5FD29F054, $0x1715609F7C746C69, $0xB54CDA58FBBEE87E, $0x538454127B096493, $0xF1BBCDCBFA53E0A8)
CONST8(uniStepHi<>, $0x8FF34785799E5CBD, $0x2E2AC13EF8E8D8D2, $0xCC623AF8783354E7, $0x6A99B4B1F77DD0FC, $0x08D12E6B76C84D11, $0xA708A824F612C926, $0x454021DE755D453B, $0xE3779B97F4A7C150)

// Permutations splitting 16 consecutive stream values (two registers)
// into the eight even positions (u1) and the eight odd ones (u2).
CONST8(uniEven<>, $0, $2, $4, $6, $8, $10, $12, $14)
CONST8(uniOdd<>, $1, $3, $5, $7, $9, $11, $13, $15)

// func uniformsAVX512(zr, cs []float64, state *uint64) int
//
// Eight Box-Muller uniform pairs per block: the 16 stream values
// Float64() would return next, u1 (even positions) to zr and u2 (odd
// positions) to cs, each computed as float64(mix(s + j·γ) >> 11) * 2^-53.
// The shift leaves at most 53 bits, so VCVTUQQ2PD is exact, and the scale
// by a power of two is exact too: the lanes hold the scalar bits without
// any rounding. A block with a zero u1 lane is left undone (the scalar
// loop redraws, which shifts the stream), as is the len%8 tail; *state
// advances by 16γ per finished block.
//
// Only Z0-Z15 are used, all through VEX/EVEX encodings.
TEXT ·uniformsAVX512(SB), NOSPLIT, $0-64
	MOVQ zr_base+0(FP), SI
	MOVQ zr_len+8(FP), CX
	MOVQ cs_base+24(FP), DI
	MOVQ state+48(FP), R8
	MOVQ (R8), AX
	XORQ DX, DX
	MOVQ $0xE3779B97F4A7C150, R9 // 16γ
	VPBROADCASTQ AX, Z1
	VPADDQ       uniStepLo<>(SB), Z1, Z0 // Z0 = s + (1..8)·γ
	VPADDQ       uniStepHi<>(SB), Z1, Z1 // Z1 = s + (9..16)·γ
	VPBROADCASTQ R9, Z8
	MOVQ         $0xBF58476D1CE4E5B9, R10
	VPBROADCASTQ R10, Z6
	MOVQ         $0x94D049BB133111EB, R10
	VPBROADCASTQ R10, Z7
	MOVQ         $0x3CA0000000000000, R10 // 2^-53
	VPBROADCASTQ R10, Z9
	VMOVDQU64    uniEven<>(SB), Z10
	VMOVDQU64    uniOdd<>(SB), Z11

uniformLoop:
	CMPQ CX, $8
	JLT  uniformDone

	// z = (z ^ z>>30) * M1; z = (z ^ z>>27) * M2; z ^= z>>31; z >>= 11
	VPSRLQ  $30, Z0, Z2
	VPSRLQ  $30, Z1, Z3
	VPXORQ  Z0, Z2, Z2
	VPXORQ  Z1, Z3, Z3
	VPMULLQ Z6, Z2, Z2
	VPMULLQ Z6, Z3, Z3
	VPSRLQ  $27, Z2, Z4
	VPSRLQ  $27, Z3, Z5
	VPXORQ  Z4, Z2, Z2
	VPXORQ  Z5, Z3, Z3
	VPMULLQ Z7, Z2, Z2
	VPMULLQ Z7, Z3, Z3
	VPSRLQ  $31, Z2, Z4
	VPSRLQ  $31, Z3, Z5
	VPXORQ  Z4, Z2, Z2
	VPXORQ  Z5, Z3, Z3
	VPSRLQ  $11, Z2, Z2
	VPSRLQ  $11, Z3, Z3

	// float64(z) * 2^-53, both exact.
	VCVTUQQ2PD Z2, Z2
	VCVTUQQ2PD Z3, Z3
	VMULPD     Z9, Z2, Z2
	VMULPD     Z9, Z3, Z3

	// Z4 = u1 (even positions), Z2 = u2 (odd positions).
	VMOVAPD   Z2, Z4
	VPERMT2PD Z3, Z10, Z4
	VPERMT2PD Z3, Z11, Z2

	// Stop before a block with a zero u1: NormFloat64 would redraw it.
	VPTESTNMQ Z4, Z4, K1
	KORTESTB  K1, K1
	JNE       uniformDone

	VMOVUPD Z4, (SI)
	VMOVUPD Z2, (DI)
	VPADDQ  Z8, Z0, Z0
	VPADDQ  Z8, Z1, Z1
	ADDQ    R9, AX
	ADDQ    $64, SI
	ADDQ    $64, DI
	ADDQ    $8, DX
	SUBQ    $8, CX
	JMP     uniformLoop

uniformDone:
	MOVQ AX, (R8)
	MOVQ DX, ret+56(FP)
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

// CONST1 defines an 8-byte read-only symbol holding the 64-bit pattern v,
// for use as a .BCST (embedded broadcast) memory operand.
#define CONST1(sym, v) \
	DATA sym+0(SB)/8, v; \
	GLOBL sym(SB), RODATA|NOPTR, $8

// Integer lane constants of the fused kernel's cos2pi octant arithmetic
// and archExp exponent range, as 64-bit lanes.
CONST1(qOne<>, $1)
CONST1(qTwo<>, $2)
CONST1(qThree<>, $3)
CONST1(qSeven<>, $7)
CONST1(qMinK<>, $-1023)
CONST1(qMaxK<>, $1024)

// func lognormalAVX512(out, u1, u2, muPat, sigmaPat []float64, off int) int
//
// Eight lognormal values per block: radiusAVX2's archLog and VSQRTPD,
// angleAVX2's cos2pi times the radius, the exp argument muPat[o] +
// sigmaPat[o]*z as a multiply then an add (the Go expression's two
// roundings, unfused), and expAVX2's archExp FMA path. The lanes of a
// block read the stage patterns at o..o+7, where o starts at off and steps
// by 8 mod k (k = len(muPat) - 7) per block. The octant index, the
// exponent k and their range tests use 64-bit lanes (VCVTTPD2QQ,
// VCVTPD2QQ, VPCMPQ), which for in-range values equal the scalar code's
// 32-bit conversions and which reject everything the 32-bit tests reject;
// no EVEX instruction touches an X or Y register, so AVX-512VL is not
// needed.
//
// The kernel works in groups of up to four blocks. Phase 1 turns each
// block's uniform pairs into normals in registers, tests the uniforms'
// lanes (0 < u1 < 1, 0 <= u2 < 1) into K1, and parks the eight normals in
// a 64-byte slot of the frame. Phase 2 turns each parked block into its
// exp arguments and values in registers, tests the arguments against
// archExp's main path into K1 and stores the block. Grouping keeps each
// loop body's dependency chain short enough for out-of-order execution to
// overlap the blocks (a single loop over the whole chain measured ~8%
// slower). A block failing either test is left undone, and so are the
// blocks after it and the len%8 tail; nothing of a failed block is
// stored. out may alias u1: phase 2 writes only blocks phase 1 has read.
//
// Only Z0-Z15 are used, all through VEX/EVEX encodings, with constants as
// .BCST memory operands (Z14 = 1.0 and Z15 = 0 are kept in registers for
// the two operations that need them as the first source).
TEXT ·lognormalAVX512(SB), NOSPLIT, $320-136
	MOVQ muPat_len+80(FP), R11
	SUBQ $7, R11                 // R11 = k
	MOVQ $8, AX
	XORQ DX, DX
	DIVQ R11
	MOVQ DX, R12                 // R12 = 8 mod k, the per-block offset step
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ u1_base+24(FP), SI
	MOVQ u2_base+48(FP), R8
	MOVQ muPat_base+72(FP), R9
	MOVQ sigmaPat_base+96(FP), R10
	MOVQ off+120(FP), BX
	XORQ DX, DX
	VPXORQ       Z15, Z15, Z15
	VBROADCASTSD one<>(SB), Z14

fusedLoop:
	CMPQ CX, $8
	JLT  fusedDone

	// Phase 1: the normals of up to four blocks, each to a 64-byte slot
	// of the frame. A block that fails its lane tests ends the group
	// there (CX = 0 makes it the last); phase 2 still finishes the
	// blocks before it.
	MOVQ SP, R13
	ADDQ $63, R13
	ANDQ $-64, R13               // R13 = the first slot, 64-byte aligned
	XORQ AX, AX                  // AX = blocks in the group

normalLoop:
	VMOVUPD (SI), Z0             // u1
	VMOVUPD (R8), Z8             // u2

	// The uniforms' main path: 0 < u1 < 1 and 0 <= u2 < 1.
	VCMPPD      $1, Z0, Z15, K1
	VCMPPD.BCST $1, one<>(SB), Z0, K1, K1
	VCMPPD      $13, Z15, Z8, K1, K1
	VCMPPD.BCST $1, one<>(SB), Z8, K1, K1

	// Radius: radiusAVX2, lane for lane. f1, k := math.Frexp(u1).
	VPANDQ.BCST logMant<>(SB), Z0, Z2
	VPORQ.BCST  half<>(SB), Z2, Z2         // Z2 = f1
	VPSRLQ      $52, Z0, Z1
	VPORQ.BCST  logMagic<>(SB), Z1, Z1
	VSUBPD.BCST logMagicBias<>(SB), Z1, Z1 // Z1 = k

	// if f1 <= √2/2 { k -= 1; f1 *= 2 }, as merge-masked operations: the
	// other lanes keep k - 0 and f1 * 1, the same bits.
	VCMPPD.BCST $2, logHSqrt2<>(SB), Z2, K2
	VSUBPD.BCST one<>(SB), Z1, K2, Z1
	VMULPD.BCST two<>(SB), Z2, K2, Z2
	VSUBPD      Z14, Z2, Z2                // Z2 = f = f1 - 1

	// s := f / (2 + f); s2 := s * s; s4 := s2 * s2
	VADDPD.BCST two<>(SB), Z2, Z3
	VDIVPD      Z3, Z2, Z3                 // Z3 = s
	VMULPD      Z3, Z3, Z4                 // Z4 = s2
	VMULPD      Z4, Z4, Z5                 // Z5 = s4

	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD.BCST logL7<>(SB), Z5, Z6
	VADDPD.BCST logL5<>(SB), Z6, Z6
	VMULPD      Z5, Z6, Z6
	VADDPD.BCST logL3<>(SB), Z6, Z6
	VMULPD      Z5, Z6, Z6
	VADDPD.BCST logL1<>(SB), Z6, Z6
	VMULPD      Z6, Z4, Z4                 // Z4 = t1

	// t2 := s4 * (L2 + s4*(L4+s4*L6)); R := t1 + t2
	VMULPD.BCST logL6<>(SB), Z5, Z6
	VADDPD.BCST logL4<>(SB), Z6, Z6
	VMULPD      Z5, Z6, Z6
	VADDPD.BCST logL2<>(SB), Z6, Z6
	VMULPD      Z6, Z5, Z5                 // Z5 = t2
	VADDPD      Z5, Z4, Z4                 // Z4 = R

	// hfsq := 0.5 * f * f
	VMULPD.BCST half<>(SB), Z2, Z7
	VMULPD      Z2, Z7, Z7                 // Z7 = hfsq

	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD      Z7, Z4, Z4
	VMULPD      Z4, Z3, Z3
	VMULPD.BCST logLn2Lo<>(SB), Z1, Z4
	VADDPD      Z4, Z3, Z3
	VSUBPD      Z3, Z7, Z7
	VSUBPD      Z2, Z7, Z7
	VMULPD.BCST logLn2Hi<>(SB), Z1, Z1
	VSUBPD      Z7, Z1, Z1                 // Z1 = log(u1)

	// math.Sqrt(-2 * log(u1))
	VMULPD.BCST negTwo<>(SB), Z1, Z1
	VSQRTPD     Z1, Z1                     // Z1 = radius

	// Angle: angleAVX2, lane for lane. x := 2π·u2;
	// j := uint64(x * (4/π)), exact in 64-bit lanes.
	VMULPD.BCST cosTwoPi<>(SB), Z8, Z8
	VMULPD.BCST cosFourOverPi<>(SB), Z8, Z9
	VCVTTPD2QQ  Z9, Z9

	// j += j&1; y := float64(j); j &= 7
	VPANDQ.BCST qOne<>(SB), Z9, Z10
	VPADDQ      Z10, Z9, Z9
	VCVTQQ2PD   Z9, Z10                    // Z10 = y
	VPANDQ.BCST qSeven<>(SB), Z9, Z9

	// z := ((x - y*pi4a) - y*pi4b) - y*pi4c
	VMULPD.BCST cosPi4A<>(SB), Z10, Z11
	VSUBPD      Z11, Z8, Z8
	VMULPD.BCST cosPi4B<>(SB), Z10, Z11
	VSUBPD      Z11, Z8, Z8
	VMULPD.BCST cosPi4C<>(SB), Z10, Z11
	VSUBPD      Z11, Z8, Z8                // Z8 = z

	// sign := ((j>>2) ^ (j>>1)) & 1, shifted to the float sign bit.
	VPSRLQ $2, Z9, Z10
	VPSRLQ $1, Z9, Z11
	VPXORQ Z11, Z10, Z10
	VPSLLQ $63, Z10, Z10                   // Z10 = sign mask

	// sel := (((j&3)+1)>>1) & 1, as the opmask K2.
	VPANDQ.BCST   qThree<>(SB), Z9, Z11
	VPADDQ.BCST   qOne<>(SB), Z11, Z11
	VPTESTMQ.BCST qTwo<>(SB), Z11, K2

	VMULPD Z8, Z8, Z12                     // Z12 = zz

	// ysin := z + z*zz*((((((S0*zz)+S1)*zz+S2)*zz+S3)*zz+S4)*zz+S5)
	VMULPD.BCST sinS0<>(SB), Z12, Z13
	VADDPD.BCST sinS1<>(SB), Z13, Z13
	VMULPD      Z12, Z13, Z13
	VADDPD.BCST sinS2<>(SB), Z13, Z13
	VMULPD      Z12, Z13, Z13
	VADDPD.BCST sinS3<>(SB), Z13, Z13
	VMULPD      Z12, Z13, Z13
	VADDPD.BCST sinS4<>(SB), Z13, Z13
	VMULPD      Z12, Z13, Z13
	VADDPD.BCST sinS5<>(SB), Z13, Z13
	VMULPD      Z12, Z8, Z11
	VMULPD      Z13, Z11, Z11
	VADDPD      Z11, Z8, Z13               // Z13 = ysin

	// ycos := 1.0 - 0.5*zz + zz*zz*((((((C0*zz)+C1)*zz+C2)*zz+C3)*zz+C4)*zz+C5)
	VMULPD.BCST cosC0<>(SB), Z12, Z2
	VADDPD.BCST cosC1<>(SB), Z2, Z2
	VMULPD      Z12, Z2, Z2
	VADDPD.BCST cosC2<>(SB), Z2, Z2
	VMULPD      Z12, Z2, Z2
	VADDPD.BCST cosC3<>(SB), Z2, Z2
	VMULPD      Z12, Z2, Z2
	VADDPD.BCST cosC4<>(SB), Z2, Z2
	VMULPD      Z12, Z2, Z2
	VADDPD.BCST cosC5<>(SB), Z2, Z2
	VMULPD      Z12, Z12, Z3
	VMULPD      Z2, Z3, Z3
	VMULPD.BCST half<>(SB), Z12, Z2
	VSUBPD      Z2, Z14, Z2
	VADDPD      Z3, Z2, Z2                 // Z2 = ycos

	// Select the sine polynomial where sel, flip the sign bit, and scale
	// the radius: Z1 = z, the normal.
	VMOVAPD Z13, K2, Z2
	VPXORQ  Z10, Z2, Z2
	VMULPD  Z2, Z1, Z1

	KORTESTB K1, K1
	JCS      normalOK
	XORQ     CX, CX              // some lane is off the main path
	JMP      expPhase

normalOK:
	VMOVUPD Z1, (R13)
	ADDQ    $64, R13
	ADDQ    $64, SI
	ADDQ    $64, R8
	SUBQ    $8, CX
	INCQ    AX
	CMPQ    AX, $4
	JEQ     expPhase
	CMPQ    CX, $8
	JGE     normalLoop

	// Phase 2: the exp of each normal the group holds, to out.
expPhase:
	MOVQ SP, R13
	ADDQ $63, R13
	ANDQ $-64, R13

expLoopZ:
	TESTQ AX, AX
	JEQ   fusedLoop
	VMOVUPD (R13), Z1

	// The exp argument mu + sigma*z: one rounded multiply, one rounded add.
	VMULPD (R10)(BX*8), Z1, Z1
	VADDPD (R9)(BX*8), Z1, Z0              // Z0 = x

	// Exp: expAVX2, lane for lane. k := round(x * LOG2E) under MXCSR, as
	// archExp's CVTSD2SL; its main path needs x <= Overflow and
	// -1023 < k < 1024. NaN, ±Inf and huge arguments fail one of these.
	VMULPD.BCST expLog2E<>(SB), Z0, Z3
	VCVTPD2QQ   Z3, Z3                     // Z3 = k
	VCMPPD.BCST $2, expOverflow<>(SB), Z0, K1
	VPCMPQ.BCST $6, qMinK<>(SB), Z3, K1, K1
	VPCMPQ.BCST $1, qMaxK<>(SB), Z3, K1, K1
	KORTESTB    K1, K1
	JCC         fusedDone                  // some lane is off the main path

	// x -= k*LN2U; x -= k*LN2L (fused, as archExp's VFNMADD231SD)
	VCVTQQ2PD         Z3, Z4
	VFNMADD231PD.BCST expLn2U<>(SB), Z4, Z0
	VFNMADD231PD.BCST expLn2L<>(SB), Z4, Z0
	VMULPD.BCST       expSixteenth<>(SB), Z0, Z0

	// Taylor series, Horner form with fused multiply-adds.
	VBROADCASTSD     expT7<>(SB), Z4
	VFMADD213PD.BCST expT6<>(SB), Z0, Z4
	VFMADD213PD.BCST expT5<>(SB), Z0, Z4
	VFMADD213PD.BCST expT4<>(SB), Z0, Z4
	VFMADD213PD.BCST expT3<>(SB), Z0, Z4
	VFMADD213PD.BCST expT2<>(SB), Z0, Z4
	VFMADD213PD.BCST half<>(SB), Z0, Z4
	VFMADD213PD.BCST one<>(SB), Z0, Z4

	// Undo the 1/16 reduction: r *= poly, then r = r*(r + 2) three
	// times and r*(r + 2) + 1 fused, as archExp.
	VMULPD           Z4, Z0, Z0
	VADDPD.BCST      two<>(SB), Z0, Z4
	VMULPD           Z4, Z0, Z0
	VADDPD.BCST      two<>(SB), Z0, Z4
	VMULPD           Z4, Z0, Z0
	VADDPD.BCST      two<>(SB), Z0, Z4
	VMULPD           Z4, Z0, Z0
	VADDPD.BCST      two<>(SB), Z0, Z4
	VFMADD213PD.BCST one<>(SB), Z4, Z0

	// return fr * 2**k
	VPADDQ.BCST expBias<>(SB), Z3, Z3
	VPSLLQ      $52, Z3, Z3
	VMULPD      Z3, Z0, Z0
	VMOVUPD     Z0, (DI)

	ADDQ $64, DI
	ADDQ $64, R13
	ADDQ $8, DX
	DECQ AX

	// The next block starts 8 elements on: off = (off + 8 mod k) mod k.
	ADDQ R12, BX
	CMPQ BX, R11
	JLT  expLoopZ
	SUBQ R11, BX
	JMP  expLoopZ

fusedDone:
	MOVQ DX, ret+128(FP)
	VZEROUPPER
	RET

// normOverAVX512's constants: the bound's c2 = (2π)²/2, c4 = (2π)⁴/24 and
// scale = 2·ln 2·(1 + 2^-40) as the Go constant expressions round them,
// 1/4, and the mask that clears a float's sign bit.
CONST1(nbC2<>, $0x4033BD3CC9BE45DE)
CONST1(nbC4<>, $0x40503C1F081B5AC4)
CONST1(nbScale<>, $0x3FF62E42FEFA501D)
CONST1(nbQuarter<>, $0x3FD0000000000000)
CONST1(nbAbs<>, $0x7FFFFFFFFFFFFFFF)

// func normOverAVX512(u1, u2 []float64, floor, t2 float64, over *[sumBatch / 64]uint64) int
//
// The lazy samplers' certificate (normOver), eight uniform pairs per
// block: lane i of a block is over when u1 < floor and normBound2(u1, u2)
// > t2, and the block's eight verdicts go to byte i/8 of over, lane i in
// bit i%8 — so element i lands in bit i%64 of word i/64. The bound is
// normBound2's expression lane by lane, every multiply and add rounded
// separately as the Go code does (no FMA), so every lane has its bits and
// the verdicts are the scalar code's. Every block is done; the len%8 tail
// is left to the caller. Only Z0-Z15 are used, all through VEX/EVEX
// encodings.
TEXT ·normOverAVX512(SB), NOSPLIT, $0-80
	MOVQ         u1_base+0(FP), SI
	MOVQ         u1_len+8(FP), CX
	MOVQ         u2_base+24(FP), DI
	VBROADCASTSD floor+48(FP), Z10
	VBROADCASTSD t2+56(FP), Z11
	MOVQ         over+64(FP), R8
	XORQ         DX, DX
	VBROADCASTSD one<>(SB), Z12
	VBROADCASTSD two<>(SB), Z13
	VBROADCASTSD half<>(SB), Z14
	VBROADCASTSD nbC2<>(SB), Z15
	MOVQ         $1022, R9
	VPBROADCASTQ R9, Z9

normOverLoop:
	CMPQ CX, $8
	JLT  normOverDone
	VMOVUPD (SI), Z0
	VMOVUPD (DI), Z1

	// lg = float64(1022 - e) + (2-m)*(1 - 0.25*(m-1)), e the biased
	// exponent and m the mantissa with the exponent of 1.
	VPANDQ.BCST  logMant<>(SB), Z0, Z2
	VPORQ.BCST   one<>(SB), Z2, Z2 // Z2 = m
	VPSRLQ       $52, Z0, Z3
	VPSUBQ       Z3, Z9, Z3
	VCVTQQ2PD    Z3, Z3
	VSUBPD       Z12, Z2, Z4
	VMULPD.BCST  nbQuarter<>(SB), Z4, Z4
	VSUBPD       Z4, Z12, Z4
	VSUBPD       Z2, Z13, Z5
	VMULPD       Z4, Z5, Z5
	VADDPD       Z5, Z3, Z3 // Z3 = lg

	// cs = 1 - w2*(c2 - c4*w2), w2 = w*w, w = 0.5 - |u2 - 0.5|.
	VSUBPD      Z14, Z1, Z6
	VPANDQ.BCST nbAbs<>(SB), Z6, Z6
	VSUBPD      Z6, Z14, Z6
	VMULPD      Z6, Z6, Z7
	VMULPD.BCST nbC4<>(SB), Z7, Z8
	VSUBPD      Z8, Z15, Z8
	VMULPD      Z8, Z7, Z8
	VSUBPD      Z8, Z12, Z8 // Z8 = cs

	// bound = lg*cs*cs*scale; over = u1 < floor && bound > t2.
	VMULPD      Z8, Z3, Z3
	VMULPD      Z8, Z3, Z3
	VMULPD.BCST nbScale<>(SB), Z3, Z3
	VCMPPD      $0x11, Z10, Z0, K1
	VCMPPD      $0x1E, Z11, Z3, K1, K1
	KMOVB       K1, AX
	MOVB        AX, (R8)(DX*1)

	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $1, DX
	SUBQ $8, CX
	JMP  normOverLoop

normOverDone:
	SHLQ $3, DX
	MOVQ DX, ret+72(FP)
	VZEROUPPER
	RET

// The operating-point kernels' constants: the smallest normal float64,
// +Inf, and the integer bounds of math.Pow's Frexp squaring loop (its
// exponent guard, |xe| <= 4096), of Frexp's exponent (biased - 1022) and
// of a normal result's biased exponent (1..2046).
CONST1(opMinNormal<>, $0x0010000000000000)
CONST1(opInf<>, $0x7FF0000000000000)
CONST1(qXeMax<>, $4096)
CONST1(qXeMin<>, $-4096)
CONST1(qFrexpBias<>, $1022)
CONST1(qMaxBiased<>, $2046)

// LOG8 sets k to archLog(x) in each lane on archLog's main path (0 < x <
// +Inf, subnormals included): radiusAVX2's port of log_amd64.s, lane for
// lane, in 512-bit registers. x is left as it is; f, s, s2, s4, t and K2
// are clobbered. Z14 must hold 1.0.
#define LOG8(x, k, f, s, s2, s4, t) \
	VPANDQ.BCST logMant<>(SB), x, f; \
	VPORQ.BCST  half<>(SB), f, f; \
	VPSRLQ      $52, x, k; \
	VPORQ.BCST  logMagic<>(SB), k, k; \
	VSUBPD.BCST logMagicBias<>(SB), k, k; \
	VCMPPD.BCST $2, logHSqrt2<>(SB), f, K2; \
	VSUBPD.BCST one<>(SB), k, K2, k; \
	VMULPD.BCST two<>(SB), f, K2, f; \
	VSUBPD      Z14, f, f; \
	VADDPD.BCST two<>(SB), f, s; \
	VDIVPD      s, f, s; \
	VMULPD      s, s, s2; \
	VMULPD      s2, s2, s4; \
	VMULPD.BCST logL7<>(SB), s4, t; \
	VADDPD.BCST logL5<>(SB), t, t; \
	VMULPD      s4, t, t; \
	VADDPD.BCST logL3<>(SB), t, t; \
	VMULPD      s4, t, t; \
	VADDPD.BCST logL1<>(SB), t, t; \
	VMULPD      t, s2, s2; \
	VMULPD.BCST logL6<>(SB), s4, t; \
	VADDPD.BCST logL4<>(SB), t, t; \
	VMULPD      s4, t, t; \
	VADDPD.BCST logL2<>(SB), t, t; \
	VMULPD      t, s4, s4; \
	VADDPD      s4, s2, s2; \
	VMULPD.BCST half<>(SB), f, t; \
	VMULPD      f, t, t; \
	VADDPD      t, s2, s2; \
	VMULPD      s2, s, s; \
	VMULPD.BCST logLn2Lo<>(SB), k, s2; \
	VADDPD      s2, s, s; \
	VSUBPD      s, t, t; \
	VSUBPD      f, t, t; \
	VMULPD.BCST logLn2Hi<>(SB), k, k; \
	VSUBPD      t, k, k

// func erlangBAVX512(c int, a, b []float64) int
//
// The Erlang-B recursion B(k) = a·B(k−1)/(k + a·B(k−1)) from B(0) = 1 for
// k = 1..c, per lane: the product a·B(k−1), the sum k + a·B(k−1) and the
// quotient, each one rounded IEEE operation as in queueing's erlangBStep,
// with k an exact float that steps by 1. Division is correctly rounded,
// so every lane has the scalar bits. Two blocks of eight advance side by
// side while sixteen lanes remain, so their dependent divisions overlap;
// then one block of eight; the len%8 tail is left to the caller. Only
// Z0-Z15 are used, all through EVEX encodings.
TEXT ·erlangBAVX512(SB), NOSPLIT, $0-64
	MOVQ         c+0(FP), R8
	MOVQ         a_base+8(FP), SI
	MOVQ         b_base+32(FP), DI
	MOVQ         b_len+40(FP), CX
	XORQ         DX, DX
	VBROADCASTSD one<>(SB), Z15

erlangB16:
	CMPQ    CX, $16
	JLT     erlangB8
	VMOVUPD (SI), Z0
	VMOVUPD 64(SI), Z1
	VMOVAPD Z15, Z2              // B(0) = 1
	VMOVAPD Z15, Z3
	VMOVAPD Z15, Z4              // k = 1
	MOVQ    R8, R9
	TESTQ   R9, R9
	JLE     erlangB16Done

erlangB16Step:
	VMULPD Z2, Z0, Z5            // a·B(k−1)
	VMULPD Z3, Z1, Z6
	VADDPD Z5, Z4, Z7            // k + a·B(k−1)
	VADDPD Z6, Z4, Z8
	VDIVPD Z7, Z5, Z2            // B(k)
	VDIVPD Z8, Z6, Z3
	VADDPD Z15, Z4, Z4
	DECQ   R9
	JNE    erlangB16Step

erlangB16Done:
	VMOVUPD Z2, (DI)
	VMOVUPD Z3, 64(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	ADDQ    $16, DX
	SUBQ    $16, CX
	JMP     erlangB16

erlangB8:
	CMPQ    CX, $8
	JLT     erlangBDone
	VMOVUPD (SI), Z0
	VMOVAPD Z15, Z2
	VMOVAPD Z15, Z4
	MOVQ    R8, R9
	TESTQ   R9, R9
	JLE     erlangB8Done

erlangB8Step:
	VMULPD Z2, Z0, Z5
	VADDPD Z5, Z4, Z7
	VDIVPD Z7, Z5, Z2
	VADDPD Z15, Z4, Z4
	DECQ   R9
	JNE    erlangB8Step

erlangB8Done:
	VMOVUPD Z2, (DI)
	ADDQ    $8, DX

erlangBDone:
	MOVQ DX, ret+56(FP)
	VZEROUPPER
	RET

// func powAVX512(dst, x []float64, yf float64, yi uint64, neg bool) int
//
// math.Pow(x, y) down its general path, eight lanes at a time, for the y
// that powSplit split into yi and yf (after math.Pow's yf > 0.5
// adjustment; neg when y < 0):
//
//	a1 := Exp(yf * Log(x))          LOG8, one rounded multiply, expAVX2's archExp port
//	x1, xe := Frexp(x)              mantissa | 0.5 and biased exponent - 1022
//	for i := yi; i != 0; i >>= 1 {  the same for every lane
//		(guard: -4096 <= xe <= 4096)
//		if i&1 == 1 { a1 *= x1; ae += xe }
//		x1 *= x1; xe <<= 1
//		if x1 < .5 { x1 += x1; xe-- }   merge-masked
//	}
//	if neg { a1 = 1 / a1; ae = -ae }
//	Ldexp(a1, ae)                   ae added to a1's exponent field
//
// with xe and ae in 64-bit lanes. A block is done only when every lane
// stays on that path: x finite, positive, normal and not 1 (so Log, Frexp
// and Pow's special cases take no other branch), the exp argument on
// archExp's main path, the loop guard never firing, and a1 and the result
// normal, which makes Ldexp an exact exponent add. The kernel stops
// before the first block that fails; the len%8 tail is left to the
// caller. Only Z0-Z15 are used, all through EVEX encodings; Z13 = yf,
// Z14 = 1.0 and Z15 = 0 stay in registers.
TEXT ·powAVX512(SB), NOSPLIT, $0-80
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         x_base+24(FP), SI
	VBROADCASTSD yf+48(FP), Z13
	MOVQ         yi+56(FP), R8
	MOVBQZX      neg+64(FP), R10
	XORQ         DX, DX
	VPXORQ       Z15, Z15, Z15
	VBROADCASTSD one<>(SB), Z14

powLoop:
	CMPQ    CX, $8
	JLT     powDone
	VMOVUPD (SI), Z0             // x

	// x finite, positive, normal and not 1.
	VCMPPD.BCST $13, opMinNormal<>(SB), Z0, K1
	VCMPPD.BCST $1, opInf<>(SB), Z0, K1, K1
	VCMPPD      $4, Z14, Z0, K1, K1

	// a1 := Exp(yf * Log(x)), on archExp's main path: the argument at
	// most Overflow and -1023 < k < 1024.
	LOG8(Z0, Z1, Z2, Z3, Z4, Z5, Z6)
	VMULPD            Z13, Z1, Z1
	VMULPD.BCST       expLog2E<>(SB), Z1, Z3
	VCVTPD2QQ         Z3, Z3     // Z3 = k
	VCMPPD.BCST       $2, expOverflow<>(SB), Z1, K1, K1
	VPCMPQ.BCST       $6, qMinK<>(SB), Z3, K1, K1
	VPCMPQ.BCST       $1, qMaxK<>(SB), Z3, K1, K1
	VCVTQQ2PD         Z3, Z4
	VFNMADD231PD.BCST expLn2U<>(SB), Z4, Z1
	VFNMADD231PD.BCST expLn2L<>(SB), Z4, Z1
	VMULPD.BCST       expSixteenth<>(SB), Z1, Z1
	VBROADCASTSD      expT7<>(SB), Z4
	VFMADD213PD.BCST  expT6<>(SB), Z1, Z4
	VFMADD213PD.BCST  expT5<>(SB), Z1, Z4
	VFMADD213PD.BCST  expT4<>(SB), Z1, Z4
	VFMADD213PD.BCST  expT3<>(SB), Z1, Z4
	VFMADD213PD.BCST  expT2<>(SB), Z1, Z4
	VFMADD213PD.BCST  half<>(SB), Z1, Z4
	VFMADD213PD.BCST  one<>(SB), Z1, Z4
	VMULPD            Z4, Z1, Z1
	VADDPD.BCST       two<>(SB), Z1, Z4
	VMULPD            Z4, Z1, Z1
	VADDPD.BCST       two<>(SB), Z1, Z4
	VMULPD            Z4, Z1, Z1
	VADDPD.BCST       two<>(SB), Z1, Z4
	VMULPD            Z4, Z1, Z1
	VADDPD.BCST       two<>(SB), Z1, Z4
	VFMADD213PD.BCST  one<>(SB), Z4, Z1
	VPADDQ.BCST       expBias<>(SB), Z3, Z3
	VPSLLQ            $52, Z3, Z3
	VMULPD            Z3, Z1, Z2 // Z2 = a1

	// x1, xe := Frexp(x); ae := 0
	VPANDQ.BCST logMant<>(SB), Z0, Z3
	VPORQ.BCST  half<>(SB), Z3, Z3         // Z3 = x1
	VPSRLQ      $52, Z0, Z4
	VPSUBQ.BCST qFrexpBias<>(SB), Z4, Z4   // Z4 = xe
	VPXORQ      Z5, Z5, Z5                 // Z5 = ae
	MOVQ        R8, R9
	TESTQ       R9, R9
	JEQ         powSquaresDone

powSquares:
	VPCMPQ.BCST $5, qXeMin<>(SB), Z4, K1, K1
	VPCMPQ.BCST $2, qXeMax<>(SB), Z4, K1, K1
	TESTQ       $1, R9
	JEQ         powSquare
	VMULPD      Z3, Z2, Z2
	VPADDQ      Z4, Z5, Z5

powSquare:
	VMULPD      Z3, Z3, Z3
	VPADDQ      Z4, Z4, Z4
	VCMPPD.BCST $1, half<>(SB), Z3, K2
	VADDPD      Z3, Z3, K2, Z3
	VPSUBQ.BCST qOne<>(SB), Z4, K2, Z4
	SHRQ        $1, R9
	JNE         powSquares

powSquaresDone:
	TESTQ  R10, R10
	JEQ    powLdexp
	VDIVPD Z2, Z14, Z2           // a1 = 1 / a1
	VPSUBQ Z5, Z15, Z5           // ae = -ae

	// Ldexp(a1, ae) for a normal a1 whose exponent plus ae stays normal:
	// add ae to the exponent field.
powLdexp:
	VPSRLQ      $52, Z2, Z6
	VPCMPQ.BCST $5, qOne<>(SB), Z6, K1, K1
	VPCMPQ.BCST $2, qMaxBiased<>(SB), Z6, K1, K1
	VPADDQ      Z5, Z6, Z6
	VPCMPQ.BCST $5, qOne<>(SB), Z6, K1, K1
	VPCMPQ.BCST $2, qMaxBiased<>(SB), Z6, K1, K1
	KORTESTB    K1, K1
	JCC         powDone          // some lane is off the general path
	VPSLLQ      $52, Z5, Z5
	VPADDQ      Z5, Z2, Z2
	VMOVUPD     Z2, (DI)

	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $8, DX
	SUBQ $8, CX
	JMP  powLoop

powDone:
	MOVQ DX, ret+72(FP)
	VZEROUPPER
	RET

// func lognormalFitAVX512(mu, sigma, mean, cv []float64) int
//
// NewLognormal's fit, eight lanes at a time: s2 = Log(1 + cv*cv) (one
// rounded multiply and add, then LOG8), mu = Log(mean) - s2/2 (LOG8, then
// the halving, exact as the scalar division by 2 is, and one rounded
// subtract) and sigma = Sqrt(s2) (VSQRTPD, correctly rounded as
// math.Sqrt's SQRTSD is). A block is done only when every lane has
// 0 < mean < +Inf, cv >= 0 and 1 + cv*cv < +Inf, so NewLognormal would not
// panic and both logs take archLog's main path. The kernel stops before
// the first block that fails; the len%8 tail is left to the caller. Only
// Z0-Z15 are used, all through EVEX encodings.
TEXT ·lognormalFitAVX512(SB), NOSPLIT, $0-104
	MOVQ         mu_base+0(FP), DI
	MOVQ         mu_len+8(FP), CX
	MOVQ         sigma_base+24(FP), R8
	MOVQ         mean_base+48(FP), SI
	MOVQ         cv_base+72(FP), R9
	XORQ         DX, DX
	VPXORQ       Z15, Z15, Z15
	VBROADCASTSD one<>(SB), Z14

fitLoop:
	CMPQ    CX, $8
	JLT     fitDone
	VMOVUPD (SI), Z0             // mean
	VMOVUPD (R9), Z8             // cv

	VCMPPD      $1, Z0, Z15, K1
	VCMPPD.BCST $1, opInf<>(SB), Z0, K1, K1
	VCMPPD      $13, Z15, Z8, K1, K1
	VMULPD      Z8, Z8, Z8
	VADDPD      Z14, Z8, Z8      // 1 + cv*cv
	VCMPPD.BCST $1, opInf<>(SB), Z8, K1, K1

	LOG8(Z8, Z9, Z10, Z11, Z12, Z13, Z7)
	LOG8(Z0, Z1, Z2, Z3, Z4, Z5, Z6)
	KORTESTB K1, K1
	JCC      fitDone             // some lane is off the main path

	VMULPD.BCST half<>(SB), Z9, Z2
	VSUBPD      Z2, Z1, Z1       // mu
	VSQRTPD     Z9, Z9           // sigma
	VMOVUPD     Z1, (DI)
	VMOVUPD     Z9, (R8)

	ADDQ $64, SI
	ADDQ $64, R9
	ADDQ $64, DI
	ADDQ $64, R8
	ADDQ $8, DX
	SUBQ $8, CX
	JMP  fitLoop

fitDone:
	MOVQ DX, ret+96(FP)
	VZEROUPPER
	RET
