// Package bodytrack reimplements the PARSEC bodytrack workload in
// miniature: an annealed particle filter tracking an articulated 2-D "stick
// figure" through a sequence of binary silhouette images. The observation
// images are synthesized from a known ground-truth pose sequence (the
// substitution for PARSEC's multi-camera video, see DESIGN.md §1), so
// tracking quality is measurable. The parallel structure matches the
// original: per annealing layer, the particle likelihood evaluations
// partition across threads, followed by a barrier and a sequential resample.
package bodytrack

import (
	"math"
	"math/rand"
	"time"

	"ompssgo/internal/img"
)

// DOF is the pose dimensionality: torso x, y, torso angle, and five limb
// angles.
const DOF = 8

// Model describes the articulated figure geometry.
type Model struct {
	W, H      int     // image dimensions
	TorsoLen  float64 // torso segment length in pixels
	LimbLen   float64 // limb segment length
	Samples   int     // sample points per segment for the likelihood
	Particles int
	Layers    int // annealing layers per frame
	Seed      int64
}

// DefaultModel returns the geometry used by the benchmark.
func DefaultModel(w, h, particles, layers int, seed int64) *Model {
	return &Model{
		W: w, H: h,
		TorsoLen: float64(h) * 0.3, LimbLen: float64(h) * 0.18,
		Samples: 12, Particles: particles, Layers: layers, Seed: seed,
	}
}

// segment is a body part: attachment point selector and base orientation.
type segment struct {
	fromTop bool    // attach at torso top (arms/head) or bottom (legs)
	base    float64 // base angle offset
	dof     int     // pose index controlling this segment
}

var segments = []segment{
	{fromTop: true, base: -2.2, dof: 3},  // left arm
	{fromTop: true, base: 2.2, dof: 4},   // right arm
	{fromTop: true, base: 0, dof: 5},     // head
	{fromTop: false, base: -2.6, dof: 6}, // left leg
	{fromTop: false, base: 2.6, dof: 7},  // right leg
}

// pose layout: [0]=x offset, [1]=y offset, [2]=torso angle, [3..7]=segment
// angles; all in [-1,1], scaled internally.

// torso returns the model's torso endpoints for a pose.
func (m *Model) torso(pose []float64) (x0, y0, x1, y1 float64) {
	cx := float64(m.W)/2 + pose[0]*float64(m.W)/4
	cy := float64(m.H)/2 + pose[1]*float64(m.H)/4
	ang := pose[2] * 0.5
	dx, dy := math.Sin(ang)*m.TorsoLen/2, math.Cos(ang)*m.TorsoLen/2
	return cx - dx, cy - dy, cx + dx, cy + dy // top, bottom
}

// forEachPoint visits the model's sample points for a pose.
func (m *Model) forEachPoint(pose []float64, visit func(x, y float64)) {
	tx, ty, bx, by := m.torso(pose)
	for s := 0; s <= m.Samples; s++ {
		f := float64(s) / float64(m.Samples)
		visit(tx+(bx-tx)*f, ty+(by-ty)*f)
	}
	for _, seg := range segments {
		ox, oy := bx, by
		if seg.fromTop {
			ox, oy = tx, ty
		}
		ang := seg.base + pose[seg.dof]*1.0
		ex, ey := ox+math.Sin(ang)*m.LimbLen, oy+math.Cos(ang)*m.LimbLen
		for s := 1; s <= m.Samples; s++ {
			f := float64(s) / float64(m.Samples)
			visit(ox+(ex-ox)*f, oy+(ey-oy)*f)
		}
	}
}

// RenderSilhouette draws the pose into a binary image with thick strokes —
// used to synthesize the observation sequence from ground truth.
func (m *Model) RenderSilhouette(pose []float64) *img.Gray {
	im := img.NewGray(m.W, m.H)
	const thick = 3
	m.forEachPoint(pose, func(x, y float64) {
		for dy := -thick; dy <= thick; dy++ {
			for dx := -thick; dx <= thick; dx++ {
				px, py := int(x)+dx, int(y)+dy
				if px >= 0 && py >= 0 && px < m.W && py < m.H {
					im.Set(px, py, 255)
				}
			}
		}
	})
	return im
}

// LogLikelihood scores a pose against a silhouette: the fraction of model
// sample points landing on foreground pixels. This is the parallel work
// unit, evaluated per particle.
func (m *Model) LogLikelihood(pose []float64, obs *img.Gray) float64 {
	hits, total := 0, 0
	m.forEachPoint(pose, func(x, y float64) {
		total++
		px, py := int(x), int(y)
		if px >= 0 && py >= 0 && px < m.W && py < m.H && obs.At(px, py) > 0 {
			hits++
		}
	})
	frac := float64(hits) / float64(total)
	// Sharp exponential weighting, as the APF uses.
	return 8 * frac
}

// Filter is the annealed particle filter state.
type Filter struct {
	Model     *Model
	Particles [][]float64
	Weights   []float64
	rng       *rand.Rand
}

// NewFilter initializes particles around the origin pose.
func NewFilter(m *Model) *Filter {
	f := &Filter{
		Model:     m,
		Particles: make([][]float64, m.Particles),
		Weights:   make([]float64, m.Particles),
		rng:       rand.New(rand.NewSource(m.Seed)),
	}
	for i := range f.Particles {
		p := make([]float64, DOF)
		for d := range p {
			p[d] = f.rng.NormFloat64() * 0.1
		}
		f.Particles[i] = p
	}
	return f
}

// Sigma returns the annealing noise scale for a layer (decreasing).
func (f *Filter) Sigma(layer int) float64 {
	return 0.12 * math.Pow(0.6, float64(layer))
}

// WeighRange computes particle weights [lo, hi) against an observation — the
// parallel work unit of one annealing layer.
func (f *Filter) WeighRange(obs *img.Gray, lo, hi int) {
	for i := lo; i < hi; i++ {
		f.Weights[i] = math.Exp(f.Model.LogLikelihood(f.Particles[i], obs))
	}
}

// ResampleAndPerturb draws a new particle set proportional to the weights
// and adds annealing noise — sequential, as in the original.
func (f *Filter) ResampleAndPerturb(layer int) {
	n := len(f.Particles)
	var total float64
	for _, w := range f.Weights {
		total += w
	}
	if total <= 0 {
		total = 1
	}
	// Systematic (low-variance) resampling keeps the filter deterministic.
	newP := make([][]float64, n)
	step := total / float64(n)
	u := f.rng.Float64() * step
	acc := 0.0
	src := 0
	sigma := f.Sigma(layer)
	for i := 0; i < n; i++ {
		target := u + float64(i)*step
		for acc+f.Weights[src] < target && src < n-1 {
			acc += f.Weights[src]
			src++
		}
		p := make([]float64, DOF)
		copy(p, f.Particles[src])
		for d := range p {
			p[d] += f.rng.NormFloat64() * sigma
			p[d] = math.Max(-1, math.Min(1, p[d]))
		}
		newP[i] = p
	}
	f.Particles = newP
}

// Estimate returns the weighted mean pose.
func (f *Filter) Estimate() []float64 {
	est := make([]float64, DOF)
	var total float64
	for i, p := range f.Particles {
		w := f.Weights[i]
		total += w
		for d := range est {
			est[d] += w * p[d]
		}
	}
	if total > 0 {
		for d := range est {
			est[d] /= total
		}
	}
	return est
}

// trackSequential runs the filter over a frame sequence (reference
// variant), returning per-frame pose estimates.
func trackSequential(m *Model, frames []*img.Gray) [][]float64 {
	f := NewFilter(m)
	out := make([][]float64, len(frames))
	for fi, obs := range frames {
		for layer := 0; layer < m.Layers; layer++ {
			f.WeighRange(obs, 0, len(f.Particles))
			f.ResampleAndPerturb(layer)
		}
		f.WeighRange(obs, 0, len(f.Particles))
		out[fi] = f.Estimate()
	}
	return out
}

// PoseError is the mean absolute difference between two poses.
func PoseError(a, b []float64) float64 {
	var s float64
	for d := range a {
		s += math.Abs(a[d] - b[d])
	}
	return s / float64(len(a))
}

// ParticleCost is the simulated cost of one particle likelihood evaluation.
func (m *Model) ParticleCost() time.Duration {
	points := (len(segments) + 1) * (m.Samples + 1)
	return time.Duration(points*14+400) * time.Nanosecond
}

// RangeCost estimates the simulated cost of weighing `particles` particles.
func (m *Model) RangeCost(particles int) time.Duration {
	return time.Duration(particles) * m.ParticleCost()
}
