package media

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestImageDeterministic(t *testing.T) {
	a := Image(64, 48, 7)
	b := Image(64, 48, 7)
	if a.Checksum() != b.Checksum() {
		t.Fatal("same seed must give identical images")
	}
	c := Image(64, 48, 8)
	if a.Checksum() == c.Checksum() {
		t.Fatal("different seeds should differ")
	}
}

func TestVideoFramesMove(t *testing.T) {
	frames := Video(5, 64, 48, 3)
	if len(frames) != 5 {
		t.Fatalf("frames = %d", len(frames))
	}
	same := 0
	for i := 1; i < len(frames); i++ {
		if frames[i].Checksum() == frames[i-1].Checksum() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d consecutive identical frames; objects should move", same)
	}
	// Consecutive frames should still be mostly similar (small motion) so
	// motion estimation has something to find.
	diff := 0
	a, b := frames[0], frames[1]
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			diff++
		}
	}
	if frac := float64(diff) / float64(len(a.Pix)); frac > 0.25 {
		t.Fatalf("%.0f%% of pixels changed between frames; motion too violent", frac*100)
	}
}

func TestPointsClusterAroundCenters(t *testing.T) {
	const n, dim, k = 600, 4, 3
	pts, centers := Points(n, dim, k, 11)
	if len(pts) != n*dim || len(centers) != k*dim {
		t.Fatal("bad shapes")
	}
	// Each point should be far closer to its own cluster center than to
	// the average inter-center distance.
	var within float64
	for p := 0; p < n; p++ {
		c := p % k
		var d float64
		for j := 0; j < dim; j++ {
			dd := pts[p*dim+j] - centers[c*dim+j]
			d += dd * dd
		}
		within += math.Sqrt(d)
	}
	within /= n
	if within > 15 {
		t.Fatalf("mean within-cluster distance %.1f too large", within)
	}
}

func TestBuffersDeterministic(t *testing.T) {
	a := Buffers(3, 100, 5)
	b := Buffers(3, 100, 5)
	for i := range a {
		if len(a[i]) != 100 {
			t.Fatalf("buffer %d size %d", i, len(a[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("buffers must be deterministic")
			}
		}
	}
}

func TestPoseSequenceBounded(t *testing.T) {
	poses := PoseSequence(50, 8, 9)
	if len(poses) != 50 {
		t.Fatalf("poses = %d", len(poses))
	}
	for f, p := range poses {
		if len(p) != 8 {
			t.Fatalf("frame %d dof = %d", f, len(p))
		}
		for d, v := range p {
			if v < -0.9 || v > 0.9 {
				t.Fatalf("pose[%d][%d] = %f out of bounds", f, d, v)
			}
		}
	}
	// Smoothness: consecutive poses close.
	for f := 1; f < len(poses); f++ {
		for d := range poses[f] {
			if math.Abs(poses[f][d]-poses[f-1][d]) > 0.3 {
				t.Fatalf("pose jump at frame %d dof %d", f, d)
			}
		}
	}
}

// TestBuffersMatchByteLoop pins the word-at-a-time fill against the byte
// loop it replaced: one Uint64 per eight bytes, low byte first, and a tail
// that takes the low bytes of one more draw. The md5 inputs digest and every
// RunSeq checksum depend on this stream staying bit-identical.
func TestBuffersMatchByteLoop(t *testing.T) {
	byteLoop := func(nbuf, size int, seed int64) [][]byte {
		rng := rand.New(rand.NewSource(seed))
		bufs := make([][]byte, nbuf)
		for i := range bufs {
			b := make([]byte, size)
			for j := 0; j < size; j += 8 {
				v := rng.Uint64()
				for k := 0; k < 8 && j+k < size; k++ {
					b[j+k] = byte(v >> (8 * k))
				}
			}
			bufs[i] = b
		}
		return bufs
	}
	for _, seed := range []int64{1, 0x5eed} {
		for _, size := range []int{0, 1, 7, 8, 9, 1003} {
			got, want := Buffers(3, size, seed), byteLoop(3, size, seed)
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("seed %d size %d: buffer %d differs from the byte loop", seed, size, i)
				}
			}
		}
	}
}
