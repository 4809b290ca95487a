//go:build !amd64

package video

// dpcm16 and undpcm16 are the 16-line kernels band_amd64.go gives
// amd64, here made of the portable ones.

func dpcm16(out []byte, stride int, src []byte, ps, w int, shift uint8) {
	dpcmRows(out, stride, src, ps, w, 16, shift)
}

func undpcm16(dst []byte, ps, w int, in []byte, stride int, shift uint8) uint {
	return undpcmRows(dst, ps, w, in, stride, shift)
}
