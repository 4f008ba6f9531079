package rotate

import (
	"fmt"
	"math"
	"testing"

	"ompssgo/internal/img"
	"ompssgo/internal/media"
)

// refRows and refBilinear are the kernel as it stood before the interior
// fast path (every tap through the bounds-checked sampler), with one
// change: each product is converted to float64 before it is summed, which
// forbids fusing it into a multiply-add. amd64 never fuses, so there they
// compile to the old kernel's arithmetic exactly. arm64 does fuse, and
// which product of `sin*dx + cos*dy` it fused depended on how the compiler
// numbered the values of the enclosing function, so the old kernel had no
// fixed arm64 answer to keep. The identity tests below hold Rows to these
// byte for byte on every architecture the tests run on.
func refRows(dst, src *img.RGB, angle float64, y0, y1 int) {
	w, h := src.W, src.H
	cx, cy := float64(w-1)/2, float64(h-1)/2
	sin, cos := math.Sin(-angle), math.Cos(-angle)
	for y := y0; y < y1; y++ {
		dy := float64(y) - cy
		drow := dst.Row(y)
		for x := 0; x < w; x++ {
			dx := float64(x) - cx
			sx := float64(cos*dx) - float64(sin*dy) + cx
			sy := float64(sin*dx) + float64(cos*dy) + cy
			r, g, b := refBilinear(src, sx, sy)
			i := 3 * x
			drow[i], drow[i+1], drow[i+2] = r, g, b
		}
	}
}

func refBilinear(src *img.RGB, x, y float64) (uint8, uint8, uint8) {
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

var identitySizes = [][2]int{{1, 1}, {2, 2}, {3, 2}, {31, 31}, {40, 17}, {96, 64}, {256, 192}, {1024, 768}}

var identityAngles = []float64{0, 1e-9, -1e-9, 0.3, 0.5, 0.7, math.Pi / 4, math.Pi / 2, math.Pi, -1.3, 3.0}

// blocks lists the row blocks of h rows in blocks of rb, the partition the
// suite's task and Pthreads variants and the serve endpoint use.
func blocks(h, rb int) [][2]int {
	var out [][2]int
	for lo := 0; lo < h; lo += rb {
		out = append(out, [2]int{lo, min(lo+rb, h)})
	}
	return out
}

// firstDiff names the first byte at which a and b differ, or "" if none.
func firstDiff(a, b *img.RGB) string {
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			p := i / 3
			return fmt.Sprintf("pixel (%d,%d) channel %d: %d, reference %d", p%a.W, p/a.W, i%3, a.Pix[i], b.Pix[i])
		}
	}
	return ""
}

func TestRowsMatchesReference(t *testing.T) {
	for _, sz := range identitySizes {
		w, h := sz[0], sz[1]
		src := media.Image(w, h, int64(w+h))
		for _, angle := range identityAngles {
			want := img.NewRGB(w, h)
			refRows(want, src, angle, 0, h)
			got := img.NewRGB(w, h)
			Rotate(got, src, angle)
			if d := firstDiff(got, want); d != "" {
				t.Fatalf("%dx%d angle %v: %s", w, h, angle, d)
			}
			// Row blocks of 8, 15 and 16 (Small, rgbcmy and Default/serve),
			// written in reverse so a block never relies on its neighbour.
			for _, rb := range []int{8, 15, 16} {
				parts := img.NewRGB(w, h)
				bl := blocks(h, rb)
				for i := len(bl) - 1; i >= 0; i-- {
					Rows(parts, src, angle, bl[i][0], bl[i][1])
				}
				if d := firstDiff(parts, want); d != "" {
					t.Fatalf("%dx%d angle %v blocks of %d: %s", w, h, angle, rb, d)
				}
			}
		}
	}
}

// TestRowsIntoWritesOnlyItsRows checks the row-buffer entry point against
// the reference: a buffer of exactly the block's rows gets the bytes Rows
// writes there.
func TestRowsIntoWritesOnlyItsRows(t *testing.T) {
	w, h := 40, 17
	src := media.Image(w, h, 9)
	want := img.NewRGB(w, h)
	refRows(want, src, 0.7, 0, h)
	for _, blk := range blocks(h, 8) {
		out := make([]uint8, 3*w*(blk[1]-blk[0]))
		RowsInto(out, src, 0.7, blk[0], blk[1])
		ref := want.Pix[3*w*blk[0] : 3*w*blk[1]]
		for i := range out {
			if out[i] != ref[i] {
				t.Fatalf("rows [%d,%d) byte %d: %d, reference %d", blk[0], blk[1], i, out[i], ref[i])
			}
		}
	}
}

func TestRowsAllocationFree(t *testing.T) {
	src := media.Image(256, 192, 4)
	dst := img.NewRGB(256, 192)
	if n := testing.AllocsPerRun(10, func() { Rows(dst, src, 0.5, 16, 32) }); n != 0 {
		t.Fatalf("Rows allocates %v times per call, want 0", n)
	}
}

// BenchmarkRows times a whole-image rotation at the suite's Default size
// and the serve endpoint's size, reporting host ns per destination pixel
// (the simulator prices one at PixelCost).
func BenchmarkRows(b *testing.B) {
	for _, sz := range [][2]int{{1024, 768}, {256, 192}} {
		w, h := sz[0], sz[1]
		b.Run(fmt.Sprintf("%dx%d", w, h), func(b *testing.B) {
			src := media.Image(w, h, 4)
			dst := img.NewRGB(w, h)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Rows(dst, src, 0.5, 0, h)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*w*h), "ns/pixel")
		})
	}
}
