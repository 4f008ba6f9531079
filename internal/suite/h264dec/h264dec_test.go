package h264dec

import (
	"testing"
	"time"

	"ompssgo/internal/h264"
	"ompssgo/internal/img"
	"ompssgo/internal/media"
	"ompssgo/machine"
	"ompssgo/ompss"
)

func TestNewFromStreamEquivalent(t *testing.T) {
	w := Small()
	a := New(w)
	b := NewFromStream(w, a.bs)
	if a.RunSeq() != b.RunSeq() {
		t.Fatal("NewFromStream must decode identically")
	}
}

func TestDecodedQuality(t *testing.T) {
	w := Small()
	in := New(w)
	frames, err := h264.Decode(in.bs)
	if err != nil {
		t.Fatal(err)
	}
	video := media.Video(w.Frames, w.W, w.H, w.Seed)
	for i := range frames {
		if psnr := img.PSNR(video[i], frames[i]); psnr < 28 {
			t.Fatalf("frame %d PSNR %.1f dB below floor", i, psnr)
		}
	}
}

func TestGroupRowsClamped(t *testing.T) {
	// Degenerate granularities must still decode correctly.
	for _, g := range []int{0, 1, 100} {
		w := Small()
		w.Frames = 4
		w.GroupRows = g
		in := New(w)
		want := in.RunSeq()
		var got uint64
		if _, err := ompss.RunSim(machine.Paper(4), func(rt *ompss.Runtime) {
			got = in.RunOmpSs(rt)
		}); err != nil {
			t.Fatalf("GroupRows=%d: %v", g, err)
		}
		if got != want {
			t.Fatalf("GroupRows=%d: wrong output", g)
		}
	}
}

func TestNBufDepthsDecodeCorrectly(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		w := Small()
		w.Frames = 6
		w.NBuf = n
		in := New(w)
		want := in.RunSeq()
		var got uint64
		if _, err := ompss.RunSim(machine.Paper(4), func(rt *ompss.Runtime) {
			got = in.RunOmpSs(rt)
		}); err != nil {
			t.Fatalf("NBuf=%d: %v", n, err)
		}
		if got != want {
			t.Fatalf("NBuf=%d: wrong output", n)
		}
	}
}

func TestNameAndClass(t *testing.T) {
	in := New(Small())
	if in.Name() != "h264dec" {
		t.Fatalf("name: %s", in.Name())
	}
}

// TestNativePipelineBounded pins the DPB/PIB backpressure fix: before the
// slot-recycle gate (output k -> reconstruction head of frame k+NBuf), a
// legal native schedule could run reconstructions arbitrarily far ahead of
// outputs, exhaust the n+2-deep DPB, and — because the exhaustion panic
// fired inside Critical("dpb") — leak the critical lock and hang the
// pipeline forever. The default workload at Workers(2) reproduced this
// within a few runs. The test repeats that exact configuration across the
// scheduling policies with a deadline, so a reintroduced unbounded fetch
// fails loudly instead of hanging CI.
func TestNativePipelineBounded(t *testing.T) {
	want := New(Default()).RunSeq()
	policies := [][]ompss.Option{
		nil,
		{ompss.WithTuning(ompss.Tuning{Locality: ompss.Off})},
		{ompss.Wait(ompss.Blocking)},
	}
	for pi, opts := range policies {
		for it := 0; it < 3; it++ {
			done := make(chan uint64, 1)
			go func() {
				in := New(Default())
				rt := ompss.New(append([]ompss.Option{ompss.Workers(2)}, opts...)...)
				got := in.RunOmpSs(rt)
				rt.Shutdown()
				done <- got
			}()
			select {
			case got := <-done:
				if got != want {
					t.Fatalf("policy %d run %d: checksum %#x, want %#x", pi, it, got, want)
				}
			case <-time.After(120 * time.Second):
				t.Fatalf("policy %d run %d: pipeline hung (DPB/PIB backpressure regression)", pi, it)
			}
		}
	}
}
