// Package color reimplements the rgbcmy benchmark kernel: per-pixel color
// space conversion from interleaved RGB to CMY planes (and the CMYK and
// grayscale variants used by the rot-cc workload). The parallel work unit is
// a block of rows; the rgbcmy benchmark repeats the conversion many times
// with a barrier between iterations to stabilize timing, which is exactly
// what makes it barrier-latency bound (paper §4).
package color

import (
	"time"

	"ompssgo/internal/img"
)

// CMY holds the three subtractive output planes.
type CMY struct {
	C, M, Y *img.Gray
}

// NewCMY allocates planes for a w×h conversion.
func NewCMY(w, h int) *CMY {
	return &CMY{C: img.NewGray(w, h), M: img.NewGray(w, h), Y: img.NewGray(w, h)}
}

// Checksum combines the plane checksums.
func (p *CMY) Checksum() uint64 {
	return p.C.Checksum()*31 ^ p.M.Checksum()*17 ^ p.Y.Checksum()
}

// RGBToCMYRows converts rows [y0, y1): C=255−R, M=255−G, Y=255−B.
// Each row is re-sliced to its exact length, so the loop checks one bound
// per pixel rather than six.
func RGBToCMYRows(dst *CMY, src *img.RGB, y0, y1 int) {
	w := src.W
	for y := y0; y < y1; y++ {
		crow := dst.C.Row(y)[:w]
		mrow, yrow, srow := dst.M.Row(y)[:w], dst.Y.Row(y)[:w], src.Row(y)[:3*w]
		for x := range crow {
			s := srow[3*x : 3*x+3 : 3*x+3]
			crow[x] = 255 - s[0]
			mrow[x] = 255 - s[1]
			yrow[x] = 255 - s[2]
		}
	}
}

// RGBToCMY converts the whole image sequentially.
func RGBToCMY(dst *CMY, src *img.RGB) { RGBToCMYRows(dst, src, 0, src.H) }

// CMYK holds four planes with black generation.
type CMYK struct {
	C, M, Y, K *img.Gray
}

// NewCMYK allocates planes for a w×h conversion.
func NewCMYK(w, h int) *CMYK {
	return &CMYK{C: img.NewGray(w, h), M: img.NewGray(w, h), Y: img.NewGray(w, h), K: img.NewGray(w, h)}
}

// Checksum combines the plane checksums.
func (p *CMYK) Checksum() uint64 {
	return p.C.Checksum()*31 ^ p.M.Checksum()*17 ^ p.Y.Checksum()*7 ^ p.K.Checksum()
}

// RGBToCMYKRows converts rows [y0, y1) with under-color removal: K is the
// minimum of the CMY components, subtracted from each plane.
// The rows are re-sliced as in RGBToCMYRows.
func RGBToCMYKRows(dst *CMYK, src *img.RGB, y0, y1 int) {
	w := src.W
	for y := y0; y < y1; y++ {
		crow := dst.C.Row(y)[:w]
		mrow, yrow, krow := dst.M.Row(y)[:w], dst.Y.Row(y)[:w], dst.K.Row(y)[:w]
		srow := src.Row(y)[:3*w]
		for x := range crow {
			s := srow[3*x : 3*x+3 : 3*x+3]
			c := 255 - s[0]
			m := 255 - s[1]
			yy := 255 - s[2]
			k := min8(c, min8(m, yy))
			crow[x], mrow[x], yrow[x], krow[x] = c-k, m-k, yy-k, k
		}
	}
}

// RGBToCMYK converts the whole image sequentially.
func RGBToCMYK(dst *CMYK, src *img.RGB) { RGBToCMYKRows(dst, src, 0, src.H) }

func min8(a, b uint8) uint8 {
	if a < b {
		return a
	}
	return b
}

// PixelCost is the simulated per-pixel conversion cost, including the
// LLC-resident memory time of the streaming loads and stores (the rgbcmy
// working set fits in cache across its many iterations).
func PixelCost() time.Duration { return 12 * time.Nanosecond }

// RowsCost estimates the simulated compute cost of converting `pixels`
// pixels.
func RowsCost(pixels int) time.Duration { return time.Duration(pixels) * PixelCost() }
