package h264

import (
	"bytes"
	"fmt"
	"hash/fnv"

	"ompssgo/internal/img"
)

// The decoder is exposed as the five pipeline stages of the paper's §3 case
// study, so the benchmark variants can arrange them as tasks (OmpSs), as
// pipeline threads with wavefront line decoding (Pthreads), or as a plain
// loop (sequential reference):
//
//	read      — StreamReader.Next: start-code scan, split, checksum
//	parse     — DecodeFrameHeader (and PIB allocation, done by the caller)
//	entropy   — EntropyDecodeFrame into a FrameData buffer
//	recon     — ReconstructRow/ReconstructFrame (DPB pictures)
//	output    — the reconstructed picture, copied out in frame order

// ParseStreamHeader reads the sequence header, returning the coded
// parameters, the frame count, and the offset where frame units begin.
func ParseStreamHeader(bs []byte) (Params, int, int, error) {
	if len(bs) < 5 || !bytes.Equal(bs[:4], magic) {
		return Params{}, 0, 0, fmt.Errorf("h264: bad magic")
	}
	br := NewBitReader(bs[4:])
	vals := make([]uint32, 5)
	for i := range vals {
		v, err := br.ReadUE()
		if err != nil {
			return Params{}, 0, 0, fmt.Errorf("h264: truncated stream header: %w", err)
		}
		vals[i] = v
	}
	deblock, err := br.ReadBits(1)
	if err != nil {
		return Params{}, 0, 0, fmt.Errorf("h264: truncated stream header: %w", err)
	}
	nf, err := br.ReadUE()
	if err != nil {
		return Params{}, 0, 0, fmt.Errorf("h264: truncated stream header: %w", err)
	}
	p := Params{
		W: int(vals[0]) * MBSize, H: int(vals[1]) * MBSize,
		QP: int(vals[2]), GOP: int(vals[3]), SearchRange: int(vals[4]),
		Deblock: deblock == 1,
	}
	if err := p.Validate(); err != nil {
		return Params{}, 0, 0, err
	}
	off := 4 + (br.BitPos()+7)/8
	return p, int(nf), off, nil
}

// StreamReader is the read stage: it scans for start codes, splits out frame
// payloads, and verifies their checksums.
type StreamReader struct {
	buf []byte
	pos int
}

// NewStreamReader starts reading frame units at off (from
// ParseStreamHeader).
func NewStreamReader(bs []byte, off int) *StreamReader {
	return &StreamReader{buf: bs, pos: off}
}

// Next returns the next frame payload, or ok=false at end of stream.
func (r *StreamReader) Next() (payload []byte, ok bool, err error) {
	if r.pos >= len(r.buf) {
		return nil, false, nil
	}
	b := r.buf
	p := r.pos
	if p+startCodeLen+3 > len(b) || b[p] != 0 || b[p+1] != 0 || b[p+2] != 1 {
		return nil, false, fmt.Errorf("h264: missing start code at %d", p)
	}
	p += startCodeLen
	n := int(b[p])<<16 | int(b[p+1])<<8 | int(b[p+2])
	p += 3
	if p+n+4 > len(b) {
		return nil, false, fmt.Errorf("h264: truncated frame unit at %d", p)
	}
	payload = b[p : p+n]
	p += n
	want := uint32(b[p])<<24 | uint32(b[p+1])<<16 | uint32(b[p+2])<<8 | uint32(b[p+3])
	h := fnv.New32a()
	h.Write(payload)
	if h.Sum32() != want {
		return nil, false, fmt.Errorf("h264: frame checksum mismatch at %d", r.pos)
	}
	r.pos = p + 4
	return payload, true, nil
}

// DecodeFrameHeader is the parse stage: it reads the frame header and
// returns a BitReader positioned at the macroblock data.
func DecodeFrameHeader(payload []byte) (Header, *BitReader, error) {
	br := NewBitReader(payload)
	num, err := br.ReadUE()
	if err != nil {
		return Header{}, nil, err
	}
	ft, err := br.ReadBits(1)
	if err != nil {
		return Header{}, nil, err
	}
	qp, err := br.ReadUE()
	if err != nil {
		return Header{}, nil, err
	}
	if qp > 51 {
		return Header{}, nil, fmt.Errorf("h264: QP %d out of range", qp)
	}
	return Header{Num: int(num), Type: int(ft), QP: int(qp)}, br, nil
}

// EntropyDecodeFrame is the ED stage: it decodes every macroblock's syntax
// elements into fd. Serial within a frame (the bitstream is sequential),
// parallel across frames.
func EntropyDecodeFrame(p Params, br *BitReader, hdr Header, fd *FrameData) error {
	fd.Hdr = hdr
	for i := range fd.MBs {
		if err := readMB(br, &fd.MBs[i], hdr.Type); err != nil {
			return fmt.Errorf("h264: MB %d: %w", i, err)
		}
	}
	return nil
}

func readMB(br *BitReader, mb *MB, ftype int) error {
	*mb = MB{}
	if ftype == FrameP {
		code, err := br.ReadUE()
		if err != nil {
			return err
		}
		switch {
		case code == 0:
			mb.Mode = ModeSkip
		case code == 1:
			mb.Mode = ModeInter
		case code <= 4:
			mb.Mode = uint8(code - 2)
		default:
			return fmt.Errorf("bad P mode code %d", code)
		}
		if mb.Mode == ModeSkip || mb.Mode == ModeInter {
			x, err := br.ReadSE()
			if err != nil {
				return err
			}
			y, err := br.ReadSE()
			if err != nil {
				return err
			}
			mb.MVX, mb.MVY = int8(x), int8(y)
		}
	} else {
		code, err := br.ReadUE()
		if err != nil {
			return err
		}
		if code > 2 {
			return fmt.Errorf("bad I mode code %d", code)
		}
		mb.Mode = uint8(code)
	}
	if mb.Mode == ModeSkip {
		return nil
	}
	for blk := 0; blk < 16; blk++ {
		if err := readCoefBlock(br, &mb.Coef[blk]); err != nil {
			return err
		}
	}
	return nil
}

func readCoefBlock(br *BitReader, c *[16]int32) error {
	nnz, err := br.ReadUE()
	if err != nil {
		return err
	}
	if nnz > 16 {
		return fmt.Errorf("bad coefficient count %d", nnz)
	}
	zi := 0
	for k := uint32(0); k < nnz; k++ {
		run, err := br.ReadUE()
		if err != nil {
			return err
		}
		level, err := br.ReadSE()
		if err != nil {
			return err
		}
		zi += int(run)
		if zi >= 16 {
			return fmt.Errorf("coefficient run overflow")
		}
		c[zigzag4[zi]] = level
		zi++
	}
	return nil
}

// ReconstructRow is the reconstruction stage's parallel work unit: it
// rebuilds one macroblock row. Correctness requires that row mbRow−1 of
// this frame is complete (intra top dependence) and, for P frames, that the
// reference picture rows up to RefRowsNeeded(mbRow) are complete (motion
// compensation) — the wavefront contract the benchmark variants enforce
// with their own synchronization.
func ReconstructRow(p Params, rec, ref *img.Gray, fd *FrameData, mbRow int) {
	for mbx := 0; mbx < p.MBW(); mbx++ {
		reconstructMB(p, rec, ref, fd, mbx, mbRow)
	}
}

// ReconstructRows rebuilds macroblock rows [r0, r1) — the row-group task
// granularity of the OmpSs variant.
func ReconstructRows(p Params, rec, ref *img.Gray, fd *FrameData, r0, r1 int) {
	for r := r0; r < r1 && r < p.MBH(); r++ {
		ReconstructRow(p, rec, ref, fd, r)
	}
}

// ReconstructMBAt rebuilds a single macroblock — the wavefront granularity
// of the line-decoding Pthreads variant. The caller must have completed the
// left and top neighbours (intra) and the needed reference rows (inter).
func ReconstructMBAt(p Params, rec, ref *img.Gray, fd *FrameData, mbx, mby int) {
	reconstructMB(p, rec, ref, fd, mbx, mby)
}

// ReconstructFrame rebuilds a whole frame (the coarse-grain task variant).
func ReconstructFrame(p Params, rec, ref *img.Gray, fd *FrameData) {
	for mbRow := 0; mbRow < p.MBH(); mbRow++ {
		ReconstructRow(p, rec, ref, fd, mbRow)
	}
}

// RefRowsNeeded returns how many pixel rows of the reference picture must
// be reconstructed before this frame's mbRow can be motion-compensated
// (MV range is ±SearchRange full pel).
func RefRowsNeeded(p Params, mbRow int) int {
	rows := (mbRow+1)*MBSize + p.SearchRange
	if rows > p.H {
		rows = p.H
	}
	return rows
}

// Decode is the sequential reference decoder: it runs the five stages in a
// plain loop and returns the decoded frames in display order.
func Decode(bs []byte) ([]*img.Gray, error) {
	p, nframes, off, err := ParseStreamHeader(bs)
	if err != nil {
		return nil, err
	}
	sr := NewStreamReader(bs, off)
	var out []*img.Gray
	prev := img.NewGray(p.W, p.H)
	cur := img.NewGray(p.W, p.H)
	fd := NewFrameData(p)
	for i := 0; i < nframes; i++ {
		payload, ok, err := sr.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("h264: stream ended at frame %d/%d", i, nframes)
		}
		hdr, br, err := DecodeFrameHeader(payload)
		if err != nil {
			return nil, err
		}
		if err := EntropyDecodeFrame(p, br, hdr, fd); err != nil {
			return nil, err
		}
		prev, cur = cur, prev
		ReconstructFrame(p, cur, prev, fd)
		out = append(out, cur.Clone())
	}
	return out, nil
}
