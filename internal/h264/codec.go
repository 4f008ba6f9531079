package h264

import (
	"fmt"
	"time"

	"ompssgo/internal/img"
)

// MBSize is the macroblock edge length in pixels.
const MBSize = 16

// Macroblock modes.
const (
	ModeIntraDC = iota // predict from mean of top row + left column
	ModeIntraH         // predict rows from the left column
	ModeIntraV         // predict columns from the top row
	ModeInter          // full-pel motion compensation + residual
	ModeSkip           // motion compensation, zero residual
)

// Params describes a coded sequence.
type Params struct {
	W, H int // frame dimensions (multiples of 16)
	QP   int // quantization parameter (0..51)
	GOP  int // I-frame interval (1 = all-intra)
	// SearchRange is the ± full-pel motion search window.
	SearchRange int
	// Deblock enables the in-loop deblocking filter at 4×4 sub-block
	// boundaries inside each macroblock. Intra-MB only, so the decoder's
	// wavefront dependence structure is unchanged. The flag is coded in
	// the stream header; encoder and decoder apply the identical filter,
	// keeping reconstruction drift-free.
	Deblock bool
}

// MBW returns macroblock columns.
func (p Params) MBW() int { return p.W / MBSize }

// MBH returns macroblock rows.
func (p Params) MBH() int { return p.H / MBSize }

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.W%MBSize != 0 || p.H%MBSize != 0 || p.W <= 0 || p.H <= 0 {
		return fmt.Errorf("h264: dimensions %dx%d not multiples of %d", p.W, p.H, MBSize)
	}
	if p.QP < 0 || p.QP > 51 {
		return fmt.Errorf("h264: QP %d out of range", p.QP)
	}
	if p.GOP < 1 {
		return fmt.Errorf("h264: GOP %d < 1", p.GOP)
	}
	return nil
}

// Frame types.
const (
	FrameI = 0
	FrameP = 1
)

// Header is a decoded frame header (the parse stage's product).
type Header struct {
	Num  int // decode-order frame number
	Type int // FrameI or FrameP
	QP   int
}

// MB is the entropy-decode product for one macroblock: everything
// reconstruction needs.
type MB struct {
	Mode     uint8
	MVX, MVY int8
	// Coef holds the 16 4×4 blocks of quantized levels in raster order
	// within the MB.
	Coef [16][16]int32
}

// FrameData is the entropy decoder's per-frame output buffer (the paper's
// H264Mb ed_bufs entries).
type FrameData struct {
	Hdr Header
	MBs []MB // MBW*MBH, raster order
}

// NewFrameData allocates an entropy-decode buffer for the sequence.
func NewFrameData(p Params) *FrameData {
	return &FrameData{MBs: make([]MB, p.MBW()*p.MBH())}
}

// PicInfo is a Picture Info Buffer entry: frame metadata flowing down the
// pipeline (the paper's parse-stage product).
type PicInfo struct {
	Hdr   Header
	InUse bool
}

// PIB is the Picture Info Buffer: a fixed pool of PicInfo entries. Fetch and
// Release are NOT internally synchronized — callers wrap them in an omp
// critical / pthread mutex, exactly as the paper describes (the availability
// of entries cannot be expressed as task dependences, so the benchmark hides
// it from the dependence system and guards it with criticals).
type PIB struct {
	entries []PicInfo
}

// NewPIB creates a pool with n entries.
func NewPIB(n int) *PIB { return &PIB{entries: make([]PicInfo, n)} }

// Fetch claims a free entry, or returns nil when the pool is exhausted.
func (p *PIB) Fetch() *PicInfo {
	for i := range p.entries {
		if !p.entries[i].InUse {
			p.entries[i].InUse = true
			return &p.entries[i]
		}
	}
	return nil
}

// Release returns an entry to the pool.
func (p *PIB) Release(pi *PicInfo) { pi.InUse = false }

// Reset puts every entry back in the state NewPIB leaves it in: free, with
// a zero header.
func (p *PIB) Reset() { clear(p.entries) }

// free counts available entries (tests).
func (p *PIB) free() int {
	n := 0
	for i := range p.entries {
		if !p.entries[i].InUse {
			n++
		}
	}
	return n
}

// Picture is a Decoded Picture Buffer entry: a reconstructed frame plus a
// reference count (held while the picture is awaiting output and while it
// serves as a motion-compensation reference).
type Picture struct {
	Num  int
	Img  *img.Gray
	refs int
}

// DPB is the Decoded Picture Buffer: a pool of pictures. Like PIB, callers
// must wrap Fetch/Release in a critical section.
type DPB struct {
	pool []*Picture
}

// NewDPB creates a pool of n pictures sized for the sequence.
func NewDPB(n int, p Params) *DPB {
	d := &DPB{}
	for i := 0; i < n; i++ {
		d.pool = append(d.pool, &Picture{Img: img.NewGray(p.W, p.H)})
	}
	return d
}

// Fetch claims a free picture with an initial reference count, or nil when
// the pool is exhausted.
func (d *DPB) Fetch(num, refs int) *Picture {
	for _, pic := range d.pool {
		if pic.refs == 0 {
			pic.Num = num
			pic.refs = refs
			return pic
		}
	}
	return nil
}

// Release drops one reference.
func (d *DPB) Release(pic *Picture) {
	if pic.refs <= 0 {
		panic("h264: DPB release without reference")
	}
	pic.refs--
}

// Reset puts every picture back in the state NewDPB leaves it in:
// unreferenced, numbered 0, every pixel zero.
func (d *DPB) Reset() {
	for _, pic := range d.pool {
		pic.Num, pic.refs = 0, 0
		clear(pic.Img.Pix)
	}
}

// free counts available pictures (tests).
func (d *DPB) free() int {
	n := 0
	for _, pic := range d.pool {
		if pic.refs == 0 {
			n++
		}
	}
	return n
}

// Simulated stage cost model (per DESIGN.md/EXPERIMENTS.md calibration;
// magnitudes follow the stage breakdown of optimized software decoders).

// ReadFrameCost models bitstream splitting (streaming + checksum).
func ReadFrameCost(bytes int) time.Duration {
	return time.Duration(float64(bytes)*0.6) * time.Nanosecond
}

// ParseCost models frame-header parsing and PIB bookkeeping.
func ParseCost() time.Duration { return 3 * time.Microsecond }

// EDMBCost models entropy-decoding one macroblock (serial within a frame).
// Entropy decode is ≈10% of decode time for fast CAVLC paths.
func EDMBCost() time.Duration { return time.Microsecond }

// ReconMBCost models reconstructing one macroblock (prediction + inverse
// transform + store) — the dominant, parallelizable stage.
func ReconMBCost() time.Duration { return 9 * time.Microsecond }

// OutputFrameCost models reordering plus frame delivery.
func OutputFrameCost(pixels int) time.Duration {
	return time.Duration(float64(pixels)*0.25) * time.Nanosecond
}
