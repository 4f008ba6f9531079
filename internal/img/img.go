// Package img provides the planar image types shared by the benchmark
// kernels (ray tracing, rotation, color conversion, video coding), plus the
// content checksums used to verify that the sequential, Pthreads, and OmpSs
// variants of every benchmark compute identical results.
package img

import (
	"fmt"
	"hash/fnv"
	"math"
)

// RGB is an 8-bit interleaved RGB image (3 bytes per pixel, row-major).
type RGB struct {
	W, H int
	Pix  []uint8 // len = 3*W*H
}

// NewRGB allocates a black RGB image.
func NewRGB(w, h int) *RGB { return &RGB{W: w, H: h, Pix: make([]uint8, 3*w*h)} }

// At returns the pixel at (x, y).
func (im *RGB) At(x, y int) (r, g, b uint8) {
	i := 3 * (y*im.W + x)
	return im.Pix[i], im.Pix[i+1], im.Pix[i+2]
}

// Set writes the pixel at (x, y).
func (im *RGB) Set(x, y int, r, g, b uint8) {
	i := 3 * (y*im.W + x)
	im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
}

// Row returns the pixel row y as a subslice (3*W bytes).
func (im *RGB) Row(y int) []uint8 { return im.Pix[3*y*im.W : 3*(y+1)*im.W] }

// Clone returns a deep copy.
func (im *RGB) Clone() *RGB {
	c := NewRGB(im.W, im.H)
	copy(c.Pix, im.Pix)
	return c
}

// Checksum returns an FNV-1a hash of the dimensions and pixels.
func (im *RGB) Checksum() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%dx%d:", im.W, im.H)
	h.Write(im.Pix)
	return h.Sum64()
}

// Gray is an 8-bit single-channel image (1 byte per pixel, row-major). The
// video codec uses it for luma planes; the color kernel for output planes.
type Gray struct {
	W, H int
	Pix  []uint8
}

// NewGray allocates a black grayscale image.
func NewGray(w, h int) *Gray { return &Gray{W: w, H: h, Pix: make([]uint8, w*h)} }

// At returns the pixel at (x, y).
func (im *Gray) At(x, y int) uint8 { return im.Pix[y*im.W+x] }

// Set writes the pixel at (x, y).
func (im *Gray) Set(x, y int, v uint8) { im.Pix[y*im.W+x] = v }

// Row returns pixel row y as a subslice.
func (im *Gray) Row(y int) []uint8 { return im.Pix[y*im.W : (y+1)*im.W] }

// Clone returns a deep copy.
func (im *Gray) Clone() *Gray {
	c := NewGray(im.W, im.H)
	copy(c.Pix, im.Pix)
	return c
}

// Checksum returns an FNV-1a hash of the dimensions and pixels.
func (im *Gray) Checksum() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%dx%d:", im.W, im.H)
	h.Write(im.Pix)
	return h.Sum64()
}

// PSNR computes the peak signal-to-noise ratio between two same-sized gray
// images, in dB (+Inf for identical images). Used by the codec tests.
func PSNR(a, b *Gray) float64 {
	if a.W != b.W || a.H != b.H {
		return 0
	}
	var se float64
	for i := range a.Pix {
		d := float64(int(a.Pix[i]) - int(b.Pix[i]))
		se += d * d
	}
	if se == 0 {
		return math.Inf(1)
	}
	mse := se / float64(len(a.Pix))
	return 10 * math.Log10(255*255/mse)
}
