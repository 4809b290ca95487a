package video

// The 16-line kernels in SSE2 (band_amd64.s). SSE2 is the amd64
// baseline, so every amd64 CPU runs them: nothing is detected and
// nothing is configured. They code blocks of 32 pixels; other widths
// take the portable kernels. Each checks here every bound the assembly
// reads or writes.

// dpcm16 writes the DPCM bodies of 16 lines of w pixels: line r of
// src, at r*ps, into w/2 bytes of out at r*stride, as dpcmRows does.
func dpcm16(out []byte, stride int, src []byte, ps, w int, shift uint8) {
	if w == 0 || w%32 != 0 || stride < w/2 {
		dpcmRows(out, stride, src, ps, w, 16, shift)
		return
	}
	dpcm16SSE2(out[:15*stride+w/2], stride, src[:15*ps+w], ps, w, uint(shift&3))
}

// undpcm16 decodes the 16 DPCM bodies of in, line r's at r*stride,
// into 16 rows of w pixels in dst, row r at r*ps, as undpcmRows does,
// and returns its mask of the lines whose predictions left [0, 255].
func undpcm16(dst []byte, ps, w int, in []byte, stride int, shift uint8) uint {
	if w == 0 || w%32 != 0 || stride < w/2 {
		return undpcmRows(dst, ps, w, in, stride, shift)
	}
	return undpcm16SSE2(dst[:15*ps+w], ps, w, in[:15*stride+w/2], stride, uint(shift&3))
}

//go:noescape
func dpcm16SSE2(out []byte, stride int, src []byte, ps, w int, shift uint)

//go:noescape
func undpcm16SSE2(dst []byte, ps, w int, in []byte, stride int, shift uint) uint
