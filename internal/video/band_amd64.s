#include "textflag.h"

// The 16-line DPCM kernels of band_amd64.go. Lane r of every vector is
// line r of the group: a column step codes or decodes one pixel of all
// 16 lines. Each kernel works on blocks of 32 pixels (16 body bytes)
// and turns 16×16 byte tiles between rows and columns on its 768-byte
// frame: T at 0(SP) holds a half-turned tile, C at 256(SP) the column
// vectors, O at 512(SP) the vectors a block's steps produce.

// TWOSTEP interleaves the bytes of X0, X1, X2, X3 = v[i], v[i+4],
// v[i+8], v[i+12] of a 16-vector tile twice, leaving v'[4i], v'[4i+1],
// v'[4i+2], v'[4i+3] in X0, X2, X4, X3. Each interleave moves a byte
// at (vector, byte) index bits abcd efgh to bcde fgha; two passes of
// TWOSTEP over a tile, i = 0 to 3 each, rotate by four and so
// transpose it.
#define TWOSTEP \
	MOVO X0, X4; PUNPCKLBW X2, X0; PUNPCKHBW X2, X4; \
	MOVO X1, X5; PUNPCKLBW X3, X1; PUNPCKHBW X3, X5; \
	MOVO X0, X2; PUNPCKLBW X1, X0; PUNPCKHBW X1, X2; \
	MOVO X4, X3; PUNPCKLBW X5, X4; PUNPCKHBW X5, X3

#define LOAD4(off) \
	MOVOU off(SP), X0; MOVOU off+64(SP), X1; MOVOU off+128(SP), X2; MOVOU off+192(SP), X3

#define STORE4(off) \
	MOVOU X0, off(SP); MOVOU X2, off+16(SP); MOVOU X4, off+32(SP); MOVOU X3, off+48(SP)

// PASS half-turns the tile at src on the frame into dst.
#define PASS(src, dst) \
	LOAD4(src); TWOSTEP; STORE4(dst); \
	LOAD4(src+16); TWOSTEP; STORE4(dst+64); \
	LOAD4(src+32); TWOSTEP; STORE4(dst+128); \
	LOAD4(src+48); TWOSTEP; STORE4(dst+192)

// INGROUP loads rows i, i+4, i+8, i+12 at R12 (R8, R9, R10 = 4, 8, 12
// rows on), half-turns them into dst and steps R12 to row i+1.
#define INGROUP(dst, step) \
	MOVOU (R12), X0; MOVOU (R12)(R8*1), X1; MOVOU (R12)(R9*1), X2; MOVOU (R12)(R10*1), X3; \
	TWOSTEP; STORE4(dst); ADDQ step, R12

// INROWS half-turns 16 rows of 16 bytes, step apart from R12, into T.
#define INROWS(step) \
	INGROUP(0, step); INGROUP(64, step); INGROUP(128, step); INGROUP(192, step)

// OUTGROUP half-turns four vectors of T into rows 4i to 4i+3 at R12
// (step3 = 3 steps) and steps R12 on four rows.
#define OUTGROUP(src, step, step3) \
	LOAD4(src); TWOSTEP; \
	MOVOU X0, (R12); MOVOU X2, (R12)(step*1); MOVOU X4, (R12)(step*2); MOVOU X3, (R12)(step3*1); \
	LEAQ (R12)(step*4), R12

// OUTROWS turns the tile in O into 16 rows of 16 bytes at R12, through T.
#define OUTROWS(step, step3) \
	PASS(512, 0); \
	OUTGROUP(0, step, step3); OUTGROUP(16, step, step3); OUTGROUP(32, step, step3); OUTGROUP(48, step, step3)

// BCAST fills x with 16 copies of the low byte of r (AX = 0x0101…01).
#define BCAST(r, x) \
	IMULQ AX, r; MOVQ r, x; PUNPCKLQDQ x, x

// ENC codes the column at off(SP) against the predictions P in X8 and
// leaves each lane's nibble q&15 in n. P is a multiple of 2^s, so
// P + (d>>s)<<s for d = pixel − P is the pixel rounded down to one,
// pixel & hi, and the reference's P + clamp(d>>s, −8, 7)<<s is that
// clamped to [P − 8<<s, P + 7<<s]; the bounds saturate harmlessly at 0
// and 255. It is the next P, and q<<s is its step. X9 = hi = 0xff<<s,
// X10 = 7<<s, X11 = 8<<s, X12 = 0x0f, X13 = s.
#define ENC(off, n) \
	MOVOU off(SP), X0; PAND X9, X0; \
	MOVO X8, X1; PSUBUSB X11, X1; MOVO X8, X2; PADDUSB X10, X2; \
	PMAXUB X1, X0; PMINUB X2, X0; \
	MOVO X0, n; PSUBB X8, n; PSRLW X13, n; PAND X12, n; MOVO X0, X8

// ENCPAIR codes the columns at c and c+16 into one body byte vector at o.
#define ENCPAIR(c, o) \
	ENC(c, X3); ENC(c+16, X4); PSLLW $4, X3; POR X4, X3; MOVOU X3, o(SP)

// ENCTILE codes the 16 columns in C into 8 body byte vectors at o.
#define ENCTILE(o) \
	ENCPAIR(256, o); ENCPAIR(288, o+16); ENCPAIR(320, o+32); ENCPAIR(352, o+48); \
	ENCPAIR(384, o+64); ENCPAIR(416, o+80); ENCPAIR(448, o+96); ENCPAIR(480, o+112)

// func dpcm16SSE2(out []byte, stride int, src []byte, ps, w int, shift uint)
TEXT ·dpcm16SSE2(SB), 0, $768-80
	MOVQ out_base+0(FP), DI
	MOVQ stride+24(FP), DX
	MOVQ src_base+32(FP), SI
	MOVQ ps+56(FP), BX
	MOVQ w+64(FP), R11
	MOVQ shift+72(FP), CX
	MOVQ $0x0101010101010101, AX
	MOVQ $0x80, R12
	BCAST(R12, X8)
	MOVQ $0xff, R12
	SHLQ CX, R12
	ANDQ $0xff, R12
	BCAST(R12, X9)
	MOVQ $7, R12
	SHLQ CX, R12
	BCAST(R12, X10)
	MOVQ $8, R12
	SHLQ CX, R12
	BCAST(R12, X11)
	MOVQ $0x0f, R12
	BCAST(R12, X12)
	MOVQ CX, X13
	LEAQ 0(BX*4), R8
	LEAQ 0(BX*8), R9
	LEAQ (R8)(R9*1), R10
	LEAQ (DX)(DX*2), R13
	SHRQ $5, R11

encblock:
	MOVQ SI, R12
	INROWS(BX)
	PASS(0, 256)
	ENCTILE(512)
	LEAQ 16(SI), R12
	INROWS(BX)
	PASS(0, 256)
	ENCTILE(640)
	MOVQ DI, R12
	OUTROWS(DX, R13)
	ADDQ $32, SI
	ADDQ $16, DI
	DECQ R11
	JNZ  encblock
	RET

// STEP adds the move in m to the predictions twice: wrapping, to the
// pixels in X8, stored at o, and saturating, biased by −128, to X7. The
// two agree, but for the bias, until a prediction leaves [0, 255]; X9
// ORs their XORs, 0x80 in a lane while they do.
#define STEP(m, o) \
	PADDB m, X8; PADDSB m, X7; MOVO X7, X2; PXOR X8, X2; POR X2, X9; \
	MOVOU X8, o(SP)

// DEC decodes the body byte vector at c into the pixel columns at o and
// o+16. A nibble n moves the prediction by ((n^8) << s) − (8<<s).
// X10 = 0x0f, X11 = 8<<s, X12 = s, X13 = 0x88, X14 = 0x80.
#define DEC(c, o) \
	MOVOU c(SP), X0; PXOR X13, X0; \
	MOVO X0, X1; PSRLW $4, X1; PAND X10, X1; PAND X10, X0; \
	PSLLW X12, X1; PSUBB X11, X1; PSLLW X12, X0; PSUBB X11, X0; \
	STEP(X1, o); STEP(X0, o+16)

// DECHALF decodes the 8 body byte vectors from c into the 16 pixel
// columns in O.
#define DECHALF(c) \
	DEC(c, 512); DEC(c+16, 544); DEC(c+32, 576); DEC(c+48, 608); \
	DEC(c+64, 640); DEC(c+80, 672); DEC(c+96, 704); DEC(c+112, 736)

// func undpcm16SSE2(dst []byte, ps, w int, in []byte, stride int, shift uint) uint
TEXT ·undpcm16SSE2(SB), 0, $768-88
	MOVQ dst_base+0(FP), DI
	MOVQ ps+24(FP), BX
	MOVQ w+32(FP), R11
	MOVQ in_base+40(FP), SI
	MOVQ stride+64(FP), DX
	MOVQ shift+72(FP), CX
	MOVQ $0x0101010101010101, AX
	MOVQ $0x0f, R12
	BCAST(R12, X10)
	MOVQ $8, R12
	SHLQ CX, R12
	BCAST(R12, X11)
	MOVQ CX, X12
	MOVQ $0x88, R12
	BCAST(R12, X13)
	MOVQ $0x80, R12
	BCAST(R12, X14)
	MOVO X14, X8
	PXOR X7, X7
	PXOR X9, X9
	LEAQ 0(DX*4), R8
	LEAQ 0(DX*8), R9
	LEAQ (R8)(R9*1), R10
	LEAQ (BX)(BX*2), R13
	SHRQ $5, R11

decblock:
	MOVQ SI, R12
	INROWS(DX)
	PASS(0, 256)
	DECHALF(256)
	MOVQ DI, R12
	OUTROWS(BX, R13)
	DECHALF(384)
	LEAQ 16(DI), R12
	OUTROWS(BX, R13)
	ADDQ $16, SI
	ADDQ $32, DI
	DECQ R11
	JNZ  decblock
	PCMPEQB X14, X9
	PMOVMSKB X9, AX
	XORQ $0xffff, AX
	MOVQ AX, ret+80(FP)
	RET
