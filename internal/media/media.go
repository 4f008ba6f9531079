// Package media generates deterministic synthetic inputs for the benchmark
// suite — the substitution for the paper's proprietary media assets (images,
// video streams, point sets). Every generator is seeded, so all benchmark
// variants consume bit-identical inputs.
package media

import (
	"encoding/binary"
	"math"
	"math/rand"

	"ompssgo/internal/img"
)

// Image synthesizes a W×H RGB image with smooth gradients, disks, and noise
// — enough structure that rotation and color conversion produce non-trivial
// outputs.
func Image(w, h int, seed int64) *img.RGB {
	rng := rand.New(rand.NewSource(seed))
	im := img.NewRGB(w, h)
	type disk struct {
		cx, cy, r  float64
		cr, cg, cb uint8
	}
	disks := make([]disk, 8)
	for i := range disks {
		disks[i] = disk{
			cx: rng.Float64() * float64(w),
			cy: rng.Float64() * float64(h),
			r:  (0.05 + 0.15*rng.Float64()) * float64(w),
			cr: uint8(rng.Intn(256)), cg: uint8(rng.Intn(256)), cb: uint8(rng.Intn(256)),
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r := uint8(255 * x / max(1, w-1))
			g := uint8(255 * y / max(1, h-1))
			b := uint8((x + y) % 256)
			for _, d := range disks {
				dx, dy := float64(x)-d.cx, float64(y)-d.cy
				if dx*dx+dy*dy < d.r*d.r {
					r, g, b = d.cr, d.cg, d.cb
				}
			}
			im.Set(x, y, r, g, b)
		}
	}
	return im
}

// GrayImage synthesizes a W×H grayscale image (gradient plus disks).
func GrayImage(w, h int, seed int64) *img.Gray {
	rgb := Image(w, h, seed)
	g := img.NewGray(w, h)
	for i := 0; i < w*h; i++ {
		r, gg, b := int(rgb.Pix[3*i]), int(rgb.Pix[3*i+1]), int(rgb.Pix[3*i+2])
		g.Pix[i] = uint8((299*r + 587*gg + 114*b) / 1000)
	}
	return g
}

// Video synthesizes n luma frames of a scene with moving objects over a
// static background — the input for the H.264-style codec (motion estimation
// finds real matches) and the bodytrack observations.
func Video(n, w, h int, seed int64) []*img.Gray {
	rng := rand.New(rand.NewSource(seed))
	bg := GrayImage(w, h, seed+1)
	type obj struct {
		x, y, vx, vy, r float64
		shade           uint8
	}
	objs := make([]obj, 4)
	for i := range objs {
		objs[i] = obj{
			x: rng.Float64() * float64(w), y: rng.Float64() * float64(h),
			vx: (rng.Float64() - 0.5) * 6, vy: (rng.Float64() - 0.5) * 6,
			r:     (0.04 + 0.08*rng.Float64()) * float64(w),
			shade: uint8(64 + rng.Intn(192)),
		}
	}
	frames := make([]*img.Gray, n)
	for f := 0; f < n; f++ {
		fr := bg.Clone()
		for i := range objs {
			o := &objs[i]
			for y := int(o.y - o.r); y <= int(o.y+o.r); y++ {
				if y < 0 || y >= h {
					continue
				}
				for x := int(o.x - o.r); x <= int(o.x+o.r); x++ {
					if x < 0 || x >= w {
						continue
					}
					dx, dy := float64(x)-o.x, float64(y)-o.y
					if dx*dx+dy*dy < o.r*o.r {
						fr.Set(x, y, o.shade)
					}
				}
			}
			o.x += o.vx
			o.y += o.vy
			if o.x < 0 || o.x >= float64(w) {
				o.vx = -o.vx
			}
			if o.y < 0 || o.y >= float64(h) {
				o.vy = -o.vy
			}
		}
		frames[f] = fr
	}
	return frames
}

// Points synthesizes n points in dim dimensions drawn from k Gaussian
// clusters (for kmeans and streamcluster). Returns the flattened points
// (n×dim) and the ground-truth cluster centers.
func Points(n, dim, k int, seed int64) (pts []float64, centers []float64) {
	rng := rand.New(rand.NewSource(seed))
	centers = make([]float64, k*dim)
	for i := range centers {
		centers[i] = rng.Float64() * 100
	}
	pts = make([]float64, n*dim)
	for p := 0; p < n; p++ {
		c := p % k
		for d := 0; d < dim; d++ {
			pts[p*dim+d] = centers[c*dim+d] + rng.NormFloat64()*3
		}
	}
	return pts, centers
}

// Buffers synthesizes nbuf deterministic pseudo-random byte buffers of the
// given size (the md5 benchmark input).
func Buffers(nbuf, size int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	bufs := make([][]byte, nbuf)
	for i := range bufs {
		// One Uint64 per eight bytes, little-endian; a tail shorter than
		// a word takes the low bytes of one more draw.
		b := make([]byte, 0, size)
		for len(b)+8 <= size {
			b = binary.LittleEndian.AppendUint64(b, rng.Uint64())
		}
		if len(b) < size {
			var word [8]byte
			binary.LittleEndian.PutUint64(word[:], rng.Uint64())
			b = append(b, word[:size-len(b)]...)
		}
		bufs[i] = b
	}
	return bufs
}

// PoseSequence generates a smooth ground-truth pose trajectory for the
// bodytrack benchmark: nframes poses, each `dof` angles/offsets evolving as
// bounded random walks.
func PoseSequence(nframes, dof int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	poses := make([][]float64, nframes)
	cur := make([]float64, dof)
	for d := range cur {
		cur[d] = rng.Float64()*0.6 - 0.3
	}
	for f := 0; f < nframes; f++ {
		p := make([]float64, dof)
		for d := range cur {
			cur[d] += rng.NormFloat64() * 0.05
			cur[d] = math.Max(-0.9, math.Min(0.9, cur[d]))
			p[d] = cur[d]
		}
		poses[f] = p
	}
	return poses
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
