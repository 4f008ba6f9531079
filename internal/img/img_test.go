package img

import (
	"math"
	"testing"
)

func TestRGBAtSetRoundtrip(t *testing.T) {
	im := NewRGB(7, 5)
	im.Set(3, 2, 10, 20, 30)
	r, g, b := im.At(3, 2)
	if r != 10 || g != 20 || b != 30 {
		t.Fatalf("At = %d,%d,%d", r, g, b)
	}
}

func TestRGBRowAliasesPixels(t *testing.T) {
	im := NewRGB(4, 3)
	row := im.Row(1)
	row[3], row[4], row[5] = 9, 8, 7 // pixel (1,1)
	r, g, b := im.At(1, 1)
	if r != 9 || g != 8 || b != 7 {
		t.Fatal("Row must alias the backing pixels")
	}
}

func TestChecksumDetectsChange(t *testing.T) {
	a := NewRGB(8, 8)
	b := a.Clone()
	if a.Checksum() != b.Checksum() {
		t.Fatal("clones must share checksum")
	}
	b.Set(0, 0, 1, 0, 0)
	if a.Checksum() == b.Checksum() {
		t.Fatal("checksum must change with content")
	}
}

func TestGrayCloneIndependent(t *testing.T) {
	a := NewGray(4, 4)
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) == 99 {
		t.Fatal("clone must not share storage")
	}
}

func TestPSNR(t *testing.T) {
	a := NewGray(16, 16)
	b := a.Clone()
	if !math.IsInf(PSNR(a, b), 1) {
		t.Fatal("identical images must have +Inf PSNR")
	}
	for i := range b.Pix {
		b.Pix[i] = a.Pix[i] + 2
	}
	small := PSNR(a, b)
	for i := range b.Pix {
		b.Pix[i] = a.Pix[i] + 40
	}
	large := PSNR(a, b)
	if small <= large {
		t.Fatalf("PSNR should fall with distortion: +2→%.1f dB, +40→%.1f dB", small, large)
	}
	if small < 40 || small > 50 {
		t.Fatalf("uniform +2 distortion should be ≈42 dB, got %.1f", small)
	}
}
