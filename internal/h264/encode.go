package h264

import (
	"fmt"
	"hash/fnv"

	"ompssgo/internal/img"
)

// Bitstream layout:
//
//	"TBC1" | ue(MBW) ue(MBH) ue(QP) ue(GOP) ue(SearchRange) ue(nframes)
//	per frame: 00 00 01 | len (3 bytes BE) | payload | fnv32(payload)
//
// The per-frame start code + checksum give the read stage real splitting and
// verification work, like NAL unit extraction.

var magic = []byte("TBC1")

const startCodeLen = 3

// Encoder compresses a frame sequence. It maintains the reconstructed
// previous frame so its references match the decoder's bit-exactly.
type Encoder struct {
	P      Params
	rec    *img.Gray // reconstruction of the last encoded frame
	prev   *img.Gray // reference = reconstruction of frame n−1
	frames int
}

// NewEncoder validates params and creates an encoder.
func NewEncoder(p Params) (*Encoder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.SearchRange < 0 || p.SearchRange > 16 {
		return nil, fmt.Errorf("h264: search range %d out of range", p.SearchRange)
	}
	return &Encoder{P: p, rec: img.NewGray(p.W, p.H), prev: img.NewGray(p.W, p.H)}, nil
}

// EncodeSequence compresses frames into a complete bitstream.
func EncodeSequence(p Params, frames []*img.Gray) ([]byte, error) {
	enc, err := NewEncoder(p)
	if err != nil {
		return nil, err
	}
	hw := NewBitWriter()
	hw.WriteUE(uint32(p.MBW()))
	hw.WriteUE(uint32(p.MBH()))
	hw.WriteUE(uint32(p.QP))
	hw.WriteUE(uint32(p.GOP))
	hw.WriteUE(uint32(p.SearchRange))
	if p.Deblock {
		hw.WriteBits(1, 1)
	} else {
		hw.WriteBits(0, 1)
	}
	hw.WriteUE(uint32(len(frames)))
	out := append([]byte{}, magic...)
	out = append(out, hw.Bytes()...)
	for i, f := range frames {
		payload, err := enc.EncodeFrame(f)
		if err != nil {
			return nil, fmt.Errorf("h264: frame %d: %w", i, err)
		}
		out = append(out, 0, 0, 1)
		n := len(payload)
		out = append(out, byte(n>>16), byte(n>>8), byte(n))
		out = append(out, payload...)
		h := fnv.New32a()
		h.Write(payload)
		s := h.Sum32()
		out = append(out, byte(s>>24), byte(s>>16), byte(s>>8), byte(s))
	}
	return out, nil
}

// EncodeFrame compresses one frame and returns its payload. Frames must be
// fed in display order; the encoder assigns I/P types by GOP position.
func (e *Encoder) EncodeFrame(src *img.Gray) ([]byte, error) {
	if src.W != e.P.W || src.H != e.P.H {
		return nil, fmt.Errorf("h264: frame size %dx%d != %dx%d", src.W, src.H, e.P.W, e.P.H)
	}
	num := e.frames
	e.frames++
	ftype := FrameP
	if num%e.P.GOP == 0 {
		ftype = FrameI
	}
	hdr := Header{Num: num, Type: ftype, QP: e.P.QP}

	w := NewBitWriter()
	w.WriteUE(uint32(num))
	w.WriteBits(uint32(ftype), 1)
	w.WriteUE(uint32(hdr.QP))

	// The encoder builds the same FrameData the decoder will, then runs
	// the shared reconstruction on it — keeping both ends bit-identical.
	fd := NewFrameData(e.P)
	fd.Hdr = hdr
	e.prev, e.rec = e.rec, e.prev
	ref := e.prev // reconstruction of frame num−1

	for mby := 0; mby < e.P.MBH(); mby++ {
		for mbx := 0; mbx < e.P.MBW(); mbx++ {
			mb := &fd.MBs[mby*e.P.MBW()+mbx]
			e.chooseMode(src, ref, fd, mb, mbx, mby, ftype)
			e.writeMB(w, mb, ftype)
			// Reconstruct immediately: later MBs intra-predict from
			// these samples.
			reconstructMB(e.P, e.rec, ref, fd, mbx, mby)
		}
	}
	return w.Bytes(), nil
}

func sadBlock(src *img.Gray, x0, y0 int, pred *[MBSize * MBSize]uint8) int {
	var sad int
	for y := 0; y < MBSize; y++ {
		row := src.Row(y0 + y)
		for x := 0; x < MBSize; x++ {
			d := int(row[x0+x]) - int(pred[y*MBSize+x])
			if d < 0 {
				d = -d
			}
			sad += d
		}
	}
	return sad
}

// chooseMode performs mode decision and fills mb (mode, MVs, coefficients).
func (e *Encoder) chooseMode(src, ref *img.Gray, fd *FrameData, mb *MB, mbx, mby, ftype int) {
	x0, y0 := mbx*MBSize, mby*MBSize
	var pred [MBSize * MBSize]uint8

	bestMode := uint8(ModeIntraDC)
	bestSAD := int(^uint(0) >> 1)
	for _, m := range []uint8{ModeIntraDC, ModeIntraH, ModeIntraV} {
		// Intra prediction must use the reconstruction (decoder view).
		predictIntra(&pred, e.rec, mbx, mby, m)
		if s := sadBlock(src, x0, y0, &pred); s < bestSAD {
			bestSAD, bestMode = s, m
		}
	}
	var bmvx, bmvy int
	if ftype == FrameP {
		interSAD := int(^uint(0) >> 1)
		r := e.P.SearchRange
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				predictInter(&pred, ref, mbx, mby, dx, dy)
				s := sadBlock(src, x0, y0, &pred)
				// Slight zero-MV bias for stable, compact streams.
				if dx != 0 || dy != 0 {
					s += 32
				}
				if s < interSAD {
					interSAD, bmvx, bmvy = s, dx, dy
				}
			}
		}
		if interSAD <= bestSAD {
			bestSAD, bestMode = interSAD, ModeInter
		}
	}

	mb.Mode = bestMode
	mb.MVX, mb.MVY = int8(bmvx), int8(bmvy)
	if bestMode == ModeInter {
		predictInter(&pred, ref, mbx, mby, bmvx, bmvy)
	} else {
		predictIntra(&pred, e.rec, mbx, mby, bestMode)
	}
	// Residual → transform → quantize per 4×4 block.
	nonzero := false
	for blk := 0; blk < 16; blk++ {
		bx, by := (blk%4)*4, (blk/4)*4
		var c [16]int32
		for y := 0; y < 4; y++ {
			row := src.Row(y0 + by + y)
			for x := 0; x < 4; x++ {
				pi := (by+y)*MBSize + bx + x
				c[y*4+x] = int32(row[x0+bx+x]) - int32(pred[pi])
			}
		}
		fwd4x4(&c)
		quantize(&c, fd.Hdr.QP)
		mb.Coef[blk] = c
		for _, v := range c {
			if v != 0 {
				nonzero = true
			}
		}
	}
	if bestMode == ModeInter && !nonzero {
		mb.Mode = ModeSkip
	}
}

// writeMB entropy-codes one macroblock.
func (e *Encoder) writeMB(w *BitWriter, mb *MB, ftype int) {
	if ftype == FrameP {
		switch mb.Mode {
		case ModeSkip:
			w.WriteUE(0)
		case ModeInter:
			w.WriteUE(1)
		default:
			w.WriteUE(uint32(2 + mb.Mode)) // 2,3,4 = DC,H,V
		}
		if mb.Mode == ModeSkip || mb.Mode == ModeInter {
			w.WriteSE(int32(mb.MVX))
			w.WriteSE(int32(mb.MVY))
		}
	} else {
		w.WriteUE(uint32(mb.Mode)) // 0,1,2
	}
	if mb.Mode == ModeSkip {
		return
	}
	for blk := 0; blk < 16; blk++ {
		writeCoefBlock(w, &mb.Coef[blk])
	}
}

// writeCoefBlock codes a 4×4 level block as (count, then run/level pairs in
// zigzag order) — a CAVLC-shaped run-length layer over Exp-Golomb.
func writeCoefBlock(w *BitWriter, c *[16]int32) {
	nnz := 0
	for _, v := range c {
		if v != 0 {
			nnz++
		}
	}
	w.WriteUE(uint32(nnz))
	run := 0
	for _, zi := range zigzag4 {
		v := c[zi]
		if v == 0 {
			run++
			continue
		}
		w.WriteUE(uint32(run))
		w.WriteSE(v)
		run = 0
	}
}
