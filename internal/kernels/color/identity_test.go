package color

import (
	"fmt"
	"testing"

	"ompssgo/internal/img"
	"ompssgo/internal/media"
)

// refCMYRows and refCMYKRows are the row loops as they stood before the
// rows were re-sliced to their exact lengths, kept verbatim. The identity
// tests below hold the kernels to them byte for byte.
func refCMYRows(dst *CMY, src *img.RGB, y0, y1 int) {
	for y := y0; y < y1; y++ {
		srow := src.Row(y)
		crow, mrow, yrow := dst.C.Row(y), dst.M.Row(y), dst.Y.Row(y)
		for x := 0; x < src.W; x++ {
			crow[x] = 255 - srow[3*x]
			mrow[x] = 255 - srow[3*x+1]
			yrow[x] = 255 - srow[3*x+2]
		}
	}
}

func refCMYKRows(dst *CMYK, src *img.RGB, y0, y1 int) {
	for y := y0; y < y1; y++ {
		srow := src.Row(y)
		crow, mrow, yrow, krow := dst.C.Row(y), dst.M.Row(y), dst.Y.Row(y), dst.K.Row(y)
		for x := 0; x < src.W; x++ {
			c := 255 - srow[3*x]
			m := 255 - srow[3*x+1]
			yy := 255 - srow[3*x+2]
			k := min8(c, min8(m, yy))
			crow[x], mrow[x], yrow[x], krow[x] = c-k, m-k, yy-k, k
		}
	}
}

var identitySizes = [][2]int{{1, 1}, {2, 2}, {3, 2}, {31, 31}, {40, 17}, {96, 64}, {160, 120}, {256, 192}, {1024, 768}}

// blocks lists the row blocks of h rows in blocks of rb, the partition the
// suite's task and Pthreads variants and the serve endpoint use.
func blocks(h, rb int) [][2]int {
	var out [][2]int
	for lo := 0; lo < h; lo += rb {
		out = append(out, [2]int{lo, min(lo+rb, h)})
	}
	return out
}

// samePlanes names the first plane byte at which got and want differ, or
// "" if none.
func samePlanes(got, want []*img.Gray) string {
	for p := range got {
		for i := range got[p].Pix {
			if got[p].Pix[i] != want[p].Pix[i] {
				return fmt.Sprintf("plane %d pixel (%d,%d): %d, reference %d",
					p, i%got[p].W, i/got[p].W, got[p].Pix[i], want[p].Pix[i])
			}
		}
	}
	return ""
}

func TestRowsMatchReference(t *testing.T) {
	for _, sz := range identitySizes {
		w, h := sz[0], sz[1]
		src := media.Image(w, h, int64(w*h))
		want, wantK := NewCMY(w, h), NewCMYK(w, h)
		refCMYRows(want, src, 0, h)
		refCMYKRows(wantK, src, 0, h)
		for _, rb := range []int{h, 8, 15, 16} {
			got, gotK := NewCMY(w, h), NewCMYK(w, h)
			for _, blk := range blocks(h, rb) {
				RGBToCMYRows(got, src, blk[0], blk[1])
				RGBToCMYKRows(gotK, src, blk[0], blk[1])
			}
			if d := samePlanes([]*img.Gray{got.C, got.M, got.Y}, []*img.Gray{want.C, want.M, want.Y}); d != "" {
				t.Fatalf("CMY %dx%d blocks of %d: %s", w, h, rb, d)
			}
			if d := samePlanes([]*img.Gray{gotK.C, gotK.M, gotK.Y, gotK.K}, []*img.Gray{wantK.C, wantK.M, wantK.Y, wantK.K}); d != "" {
				t.Fatalf("CMYK %dx%d blocks of %d: %s", w, h, rb, d)
			}
		}
	}
}

func TestRowsAllocationFree(t *testing.T) {
	src := media.Image(160, 120, 5)
	dst, dstK := NewCMY(160, 120), NewCMYK(160, 120)
	if n := testing.AllocsPerRun(10, func() { RGBToCMYRows(dst, src, 15, 30) }); n != 0 {
		t.Fatalf("RGBToCMYRows allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { RGBToCMYKRows(dstK, src, 15, 30) }); n != 0 {
		t.Fatalf("RGBToCMYKRows allocates %v times per call, want 0", n)
	}
}

// BenchmarkRGBToCMYRows times a whole-image conversion at the rgbcmy
// workload's size (the suite's Default and the serve endpoint's), reporting
// host ns per pixel (the simulator prices one at PixelCost).
func BenchmarkRGBToCMYRows(b *testing.B) {
	w, h := 160, 120
	src := media.Image(w, h, 5)
	dst := NewCMY(w, h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RGBToCMYRows(dst, src, 0, h)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*w*h), "ns/pixel")
}
