// Package rotate reimplements the rotate benchmark kernel: rotation of an
// RGB image by an arbitrary angle about its center with bilinear
// interpolation. The parallel work unit is a block of destination rows,
// as in the original benchmark.
package rotate

import (
	"math"
	"time"

	"ompssgo/internal/img"
)

// Rows rotates src by angle (radians, counter-clockwise) into the
// destination rows [y0, y1) of dst. dst and src must have equal dimensions;
// samples falling outside src are black. Inverse mapping with bilinear
// interpolation.
func Rows(dst, src *img.RGB, angle float64, y0, y1 int) {
	RowsInto(dst.Pix[3*y0*dst.W:3*y1*dst.W], src, angle, y0, y1)
}

// RowsInto is Rows writing into out, which holds exactly the destination
// rows [y0, y1) of an image the size of src (3*W*(y1-y0) bytes), so a
// caller that owns only those rows needs no whole destination image.
//
// A sample whose 2×2 footprint lies inside src reads its four taps
// straight from src.Pix with the weights and accumulation order bilinear
// uses, so every byte equals what bilinear returns; a sample whose
// footprint crosses an edge goes through bilinear itself.
//
// Every product is converted to float64 before it is summed. The
// conversion rounds it, so no architecture fuses it into a multiply-add,
// and each computes the bytes amd64 (which never fuses) does.
func RowsInto(out []uint8, src *img.RGB, angle float64, y0, y1 int) {
	w, h := src.W, src.H
	cx, cy := float64(w-1)/2, float64(h-1)/2
	sin, cos := math.Sin(-angle), math.Cos(-angle)
	// sx < xlim is floor(sx)+1 < w; the same for y.
	xlim, ylim := float64(w-1), float64(h-1)
	pix, stride := src.Pix, 3*w
	for y := y0; y < y1; y++ {
		dy := float64(y) - cy
		drow := out[stride*(y-y0) : stride*(y-y0+1)]
		for x := 0; x < w; x++ {
			dx := float64(x) - cx
			sx := float64(cos*dx) - float64(sin*dy) + cx
			sy := float64(sin*dx) + float64(cos*dy) + cy
			d := drow[3*x : 3*x+3 : 3*x+3]
			if !(sx >= 0 && sy >= 0 && sx < xlim && sy < ylim) {
				d[0], d[1], d[2] = bilinear(src, sx, sy)
				continue
			}
			// Truncation is floor for a non-negative sample.
			ix, iy := int(sx), int(sy)
			fx, fy := sx-float64(ix), sy-float64(iy)
			ax, ay := 1-fx, 1-fy
			bx, by := 1-ax, 1-ay
			w00, w01, w10, w11 := ax*ay, bx*ay, ax*by, bx*by
			i := 3 * (iy*w + ix)
			p := pix[i : i+6 : i+6]
			q := pix[i+stride : i+stride+6 : i+stride+6]
			// The taps in bilinear's order, each product rounded as there.
			r := float64(w00 * float64(p[0]))
			g := float64(w00 * float64(p[1]))
			b := float64(w00 * float64(p[2]))
			r += float64(w01 * float64(p[3]))
			g += float64(w01 * float64(p[4]))
			b += float64(w01 * float64(p[5]))
			r += float64(w10 * float64(q[0]))
			g += float64(w10 * float64(q[1]))
			b += float64(w10 * float64(q[2]))
			r += float64(w11 * float64(q[3]))
			g += float64(w11 * float64(q[4]))
			b += float64(w11 * float64(q[5]))
			d[0], d[1], d[2] = uint8(r+0.5), uint8(g+0.5), uint8(b+0.5)
		}
	}
}

// Rotate rotates the whole image sequentially (the reference variant).
func Rotate(dst, src *img.RGB, angle float64) { Rows(dst, src, angle, 0, src.H) }

func bilinear(src *img.RGB, x, y float64) (uint8, uint8, uint8) {
	x0, y0 := int(math.Floor(x)), int(math.Floor(y))
	fx, fy := x-float64(x0), y-float64(y0)
	var acc [3]float64
	for dy := 0; dy <= 1; dy++ {
		for dx := 0; dx <= 1; dx++ {
			wgt := (1 - math.Abs(float64(dx)-fx)) * (1 - math.Abs(float64(dy)-fy))
			px, py := x0+dx, y0+dy
			if px < 0 || py < 0 || px >= src.W || py >= src.H {
				continue
			}
			r, g, b := src.At(px, py)
			acc[0] += float64(wgt * float64(r))
			acc[1] += float64(wgt * float64(g))
			acc[2] += float64(wgt * float64(b))
		}
	}
	return uint8(acc[0] + 0.5), uint8(acc[1] + 0.5), uint8(acc[2] + 0.5)
}

// PixelCost is the simulated per-pixel cost of the inverse mapping plus
// 4-tap bilinear filter.
func PixelCost() time.Duration { return 16 * time.Nanosecond }

// RowsCost estimates the simulated cost of rotating `pixels` destination
// pixels.
func RowsCost(pixels int) time.Duration { return time.Duration(pixels) * PixelCost() }
