package md5

import (
	cryptomd5 "crypto/md5"
	"testing"

	"ompssgo/internal/check"
	kern "ompssgo/internal/kernels/md5"
	"ompssgo/internal/media"
)

func TestSuiteDigestsMatchStdlib(t *testing.T) {
	// The suite's result checksum must be reproducible from crypto/md5
	// over the same generated buffers — pinning both the generator and
	// the kernel.
	w := Small()
	in := New(w)
	bufs := media.Buffers(w.NBuf, w.BufSize, w.Seed)
	sums := make([]uint64, len(bufs))
	for i, b := range bufs {
		d := cryptomd5.Sum(b)
		sums[i] = check.Bytes(d[:])
	}
	if in.RunSeq() != check.Combine(sums) {
		t.Fatal("suite digests diverge from crypto/md5 over the same inputs")
	}
}

func TestKernelAgreesPerBuffer(t *testing.T) {
	for _, b := range media.Buffers(4, 1000, 3) {
		if kern.Sum(b) != cryptomd5.Sum(b) {
			t.Fatal("kernel digest mismatch")
		}
	}
}

func TestNameAndClass(t *testing.T) {
	in := New(Small())
	if in.Name() != "md5" {
		t.Fatalf("name: %s", in.Name())
	}
}
