package h264

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ompssgo/internal/img"
	"ompssgo/internal/media"
)

func TestExpGolombRoundtripProperty(t *testing.T) {
	fu := func(vals []uint32) bool {
		w := NewBitWriter()
		for _, v := range vals {
			w.WriteUE(v % (1 << 20))
		}
		r := NewBitReader(w.Bytes())
		for _, v := range vals {
			got, err := r.ReadUE()
			if err != nil || got != v%(1<<20) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fu, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	fs := func(vals []int32) bool {
		w := NewBitWriter()
		for _, v := range vals {
			w.WriteSE(v % (1 << 18))
		}
		r := NewBitReader(w.Bytes())
		for _, v := range vals {
			got, err := r.ReadSE()
			if err != nil || got != v%(1<<18) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fs, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsMixedRoundtrip(t *testing.T) {
	w := NewBitWriter()
	w.WriteBits(0b1011, 4)
	w.WriteUE(0)
	w.WriteSE(-7)
	w.WriteBits(0x1ff, 9)
	r := NewBitReader(w.Bytes())
	if v, _ := r.ReadBits(4); v != 0b1011 {
		t.Fatalf("bits: %b", v)
	}
	if v, _ := r.ReadUE(); v != 0 {
		t.Fatalf("ue: %d", v)
	}
	if v, _ := r.ReadSE(); v != -7 {
		t.Fatalf("se: %d", v)
	}
	if v, _ := r.ReadBits(9); v != 0x1ff {
		t.Fatalf("bits9: %x", v)
	}
}

func TestBitReaderUnderrun(t *testing.T) {
	r := NewBitReader([]byte{0xff})
	if _, err := r.ReadBits(9); err == nil {
		t.Fatal("expected underrun error")
	}
}

func TestTransformQuantRoundtripBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, qp := range []int{0, 10, 20, 28} {
		var worst int32
		for trial := 0; trial < 200; trial++ {
			var orig, c [16]int32
			for i := range orig {
				orig[i] = int32(rng.Intn(255) - 127) // residual range
				c[i] = orig[i]
			}
			fwd4x4(&c)
			quantize(&c, qp)
			dequantize(&c, qp)
			inv4x4(&c)
			for i := range c {
				d := c[i] - orig[i]
				if d < 0 {
					d = -d
				}
				if d > worst {
					worst = d
				}
			}
		}
		// Quantization error grows with QP; the bound is loose but must
		// scale sanely and stay small at low QP.
		limit := int32(2 + qstepApprox(qp))
		if worst > limit {
			t.Fatalf("QP %d: worst reconstruction error %d > %d", qp, worst, limit)
		}
	}
}

func qstepApprox(qp int) int32 { return int32(float64(5) * math.Pow(2, float64(qp)/6.0)) }

func TestZigzagIsPermutation(t *testing.T) {
	seen := [16]bool{}
	for _, v := range zigzag4 {
		if v < 0 || v > 15 || seen[v] {
			t.Fatal("zigzag not a permutation")
		}
		seen[v] = true
	}
}

func TestPIBFetchRelease(t *testing.T) {
	p := NewPIB(3)
	a, b, c := p.Fetch(), p.Fetch(), p.Fetch()
	if a == nil || b == nil || c == nil {
		t.Fatal("pool should supply 3 entries")
	}
	if p.Fetch() != nil {
		t.Fatal("exhausted pool must return nil")
	}
	p.Release(b)
	if p.Fetch() == nil {
		t.Fatal("released entry should be reusable")
	}
	if p.free() != 0 {
		t.Fatalf("free = %d", p.free())
	}
}

func TestDPBRefcounting(t *testing.T) {
	d := NewDPB(2, Params{W: 16, H: 16, QP: 20, GOP: 4})
	a := d.Fetch(0, 2) // output + reference
	if a == nil {
		t.Fatal("fetch failed")
	}
	if d.free() != 1 {
		t.Fatalf("free = %d", d.free())
	}
	d.Release(a)
	if d.free() != 1 {
		t.Fatal("picture still referenced")
	}
	a.refs++
	d.Release(a)
	d.Release(a)
	if d.free() != 2 {
		t.Fatal("picture should be free after all releases")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-release must panic")
		}
	}()
	d.Release(a)
}

func testParams() Params {
	return Params{W: 96, H: 64, QP: 24, GOP: 4, SearchRange: 4}
}

func testStream(t *testing.T, nframes int) ([]byte, []*img.Gray, Params) {
	t.Helper()
	p := testParams()
	frames := media.Video(nframes, p.W, p.H, 5)
	bs, err := EncodeSequence(p, frames)
	if err != nil {
		t.Fatal(err)
	}
	return bs, frames, p
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	bs, frames, p := testStream(t, 6)
	dec, err := Decode(bs)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(dec), len(frames))
	}
	for i := range dec {
		psnr := img.PSNR(frames[i], dec[i])
		if psnr < 30 {
			t.Fatalf("frame %d PSNR %.1f dB < 30 (QP %d)", i, psnr, p.QP)
		}
	}
}

func TestDecoderMatchesEncoderReconstruction(t *testing.T) {
	// The drift-free contract: the decoder's pictures must be bit-exactly
	// the encoder's reconstructions.
	p := testParams()
	frames := media.Video(5, p.W, p.H, 6)
	enc, err := NewEncoder(p)
	if err != nil {
		t.Fatal(err)
	}
	var recs []uint64
	var units [][]byte
	for _, f := range frames {
		payload, err := enc.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, payload)
		recs = append(recs, enc.rec.Checksum())
	}
	// Frame the units as EncodeSequence would.
	hw := NewBitWriter()
	hw.WriteUE(uint32(p.MBW()))
	hw.WriteUE(uint32(p.MBH()))
	hw.WriteUE(uint32(p.QP))
	hw.WriteUE(uint32(p.GOP))
	hw.WriteUE(uint32(p.SearchRange))
	hw.WriteBits(0, 1) // deblock off
	hw.WriteUE(uint32(len(units)))
	bs := append([]byte{}, magic...)
	bs = append(bs, hw.Bytes()...)
	for _, u := range units {
		bs = append(bs, 0, 0, 1, byte(len(u)>>16), byte(len(u)>>8), byte(len(u)))
		bs = append(bs, u...)
		h := fnv.New32a()
		h.Write(u)
		s := h.Sum32()
		bs = append(bs, byte(s>>24), byte(s>>16), byte(s>>8), byte(s))
	}
	dec, err := Decode(bs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dec {
		if dec[i].Checksum() != recs[i] {
			t.Fatalf("frame %d: decoder output differs from encoder reconstruction", i)
		}
	}
}

func TestPFramesCompress(t *testing.T) {
	p := testParams()
	frames := media.Video(8, p.W, p.H, 7)
	enc, _ := NewEncoder(p)
	var sizes []int
	for _, f := range frames {
		u, err := enc.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(u))
	}
	// Frames 1..3 are P (GOP=4): P frames of slowly moving content must
	// be much smaller than the I frame.
	if sizes[1] >= sizes[0]/2 || sizes[2] >= sizes[0]/2 {
		t.Fatalf("P frames not compressing: sizes %v", sizes)
	}
}

func TestSkipMBsInStaticRegions(t *testing.T) {
	p := testParams()
	static := media.GrayImage(p.W, p.H, 8)
	enc, _ := NewEncoder(p)
	// Frame 0 (I) codes the content; frame 1 (P) refines frame 0's
	// quantization error; by frame 2 the reconstruction is a fixed point
	// and everything skips.
	for i := 0; i < 2; i++ {
		if _, err := enc.EncodeFrame(static); err != nil {
			t.Fatal(err)
		}
	}
	payload, err := enc.EncodeFrame(static)
	if err != nil {
		t.Fatal(err)
	}
	hdr, br, err := DecodeFrameHeader(payload)
	if err != nil {
		t.Fatal(err)
	}
	fd := NewFrameData(p)
	if err := EntropyDecodeFrame(p, br, hdr, fd); err != nil {
		t.Fatal(err)
	}
	skips := 0
	for i := range fd.MBs {
		if fd.MBs[i].Mode == ModeSkip {
			skips++
		}
	}
	if skips < len(fd.MBs)*9/10 {
		t.Fatalf("identical frame: only %d/%d MBs skipped", skips, len(fd.MBs))
	}
}

func TestRowReconstructionMatchesFrame(t *testing.T) {
	bs, _, p := testStream(t, 3)
	_, nframes, off, err := ParseStreamHeader(bs)
	if err != nil || nframes != 3 {
		t.Fatal(err)
	}
	sr := NewStreamReader(bs, off)
	prevA, curA := img.NewGray(p.W, p.H), img.NewGray(p.W, p.H)
	prevB, curB := img.NewGray(p.W, p.H), img.NewGray(p.W, p.H)
	fd := NewFrameData(p)
	for {
		payload, ok, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		hdr, br, _ := DecodeFrameHeader(payload)
		if err := EntropyDecodeFrame(p, br, hdr, fd); err != nil {
			t.Fatal(err)
		}
		prevA, curA = curA, prevA
		prevB, curB = curB, prevB
		ReconstructFrame(p, curA, prevA, fd)
		for row := 0; row < p.MBH(); row++ {
			ReconstructRow(p, curB, prevB, fd, row)
		}
		if curA.Checksum() != curB.Checksum() {
			t.Fatalf("frame %d: row-wise reconstruction differs", hdr.Num)
		}
	}
}

func TestStreamReaderDetectsCorruption(t *testing.T) {
	bs, _, _ := testStream(t, 2)
	_, _, off, err := ParseStreamHeader(bs)
	if err != nil {
		t.Fatal(err)
	}
	bs[off+20] ^= 0xff // flip a payload byte
	sr := NewStreamReader(bs, off)
	for {
		_, ok, err := sr.Next()
		if err != nil {
			return // checksum caught it
		}
		if !ok {
			t.Fatal("corruption not detected")
		}
	}
}

func TestRefRowsNeeded(t *testing.T) {
	p := testParams()
	if got := RefRowsNeeded(p, 0); got != MBSize+p.SearchRange {
		t.Fatalf("row 0 needs %d", got)
	}
	if got := RefRowsNeeded(p, p.MBH()-1); got != p.H {
		t.Fatalf("last row needs %d, want clamp to %d", got, p.H)
	}
}

func TestParseStreamHeaderRejectsGarbage(t *testing.T) {
	if _, _, _, err := ParseStreamHeader([]byte("NOPE-----")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, _, _, err := ParseStreamHeader([]byte{}); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{W: 17, H: 32, QP: 20, GOP: 1},
		{W: 32, H: 32, QP: 99, GOP: 1},
		{W: 32, H: 32, QP: 20, GOP: 0},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Fatalf("case %d should fail", i)
		}
	}
	if (Params{W: 32, H: 32, QP: 20, GOP: 3}).Validate() != nil {
		t.Fatal("valid params rejected")
	}
}

func TestDecodeDeterministic(t *testing.T) {
	bs, _, _ := testStream(t, 4)
	a, err := Decode(bs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decode(bs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Checksum() != b[i].Checksum() {
			t.Fatal("decode must be deterministic")
		}
	}
}
