// Pipeline: the paper's Listing 1 — the pipelined H.264 main decoder loop —
// expressed with this library against the real toy-codec substrate.
//
// Run with: go run ./examples/pipeline
//
// Each loop iteration spawns one task per pipeline stage (read, parse,
// entropy-decode, reconstruct, output). Stage contexts annotated inout
// serialize each stage across iterations; a circular buffer of N frames
// renames the per-iteration data, eliminating the WAR/WAW hazards that
// would otherwise serialize everything (OmpSs has no automatic renaming —
// the paper calls this manual renaming out explicitly); `taskwait on` the
// read context gates the loop, and the Picture Info Buffer / Decoded
// Picture Buffer are recycled inside named criticals because their
// availability cannot be expressed as task dependences.
package main

import (
	"context"
	"fmt"
	"time"

	"ompssgo/internal/h264"
	"ompssgo/internal/media"
	"ompssgo/internal/obs"
	"ompssgo/machine"
	"ompssgo/ompss"
)

const N = 3 // circular buffer depth (Listing 1's N)

func main() {
	// Synthesize and encode a short sequence with the repo's codec.
	p := h264.Params{W: 96, H: 64, QP: 26, GOP: 4, SearchRange: 4}
	video := media.Video(10, p.W, p.H, 42)
	bs, err := h264.EncodeSequence(p, video)
	if err != nil {
		panic(err)
	}

	rec := obs.NewRecorder()
	st, err := ompss.RunSim(machine.Paper(8), func(rt *ompss.Runtime) {
		decode(rt, p, bs)
	}, ompss.Observe(rec))
	if err != nil {
		panic(err)
	}
	a := obs.Analyze(rec.Snapshot())
	fmt.Printf("pipeline decoded on simulated 8 cores: makespan %v, %d tasks, max concurrency %d\n",
		st.Makespan, a.Submitted, a.MaxParallelism)
}

// decode is the Listing 1 loop. Compare with the paper:
//
//	while(!EOF){
//	  #pragma omp task inout(*rc) output(*frm)
//	  read_frame_task(rc, &frm[k%N]);
//	  ...
//	  #pragma omp taskwait on (*rc)
//	}
func decode(rt *ompss.Runtime, p h264.Params, bs []byte) {
	_, nframes, off, err := h264.ParseStreamHeader(bs)
	if err != nil {
		panic(err)
	}
	sr := h264.NewStreamReader(bs, off)

	// Stage contexts (Listing 1's rc, nc, ec, oc — plus dc for the
	// reconstruction stage; the paper's listing reuses *rc there, which
	// would chain the read stage behind reconstruction and stall the
	// pipeline, so we give reconstruction its own context). The contexts
	// and circular-buffer slots recur every iteration, so they are
	// registered once as data handles — the pre-resolved analogue of the
	// pragma's clause expressions.
	rc := rt.Register(new(int))
	nc := rt.Register(new(int))
	ec := rt.Register(new(int))
	dc := rt.Register(new(int))
	oc := rt.Register(new(int))

	// Circular buffers: frames, headers, entropy-decode buffers, pictures.
	frm := make([][]byte, N)
	hdr := make([]h264.Header, N)
	br := make([]*h264.BitReader, N)
	eds := make([]*h264.FrameData, N)
	pics := make([]*h264.Picture, N)
	frmD := make([]*ompss.Datum, N)
	hdrD := make([]*ompss.Datum, N)
	edsD := make([]*ompss.Datum, N)
	picD := make([]*ompss.Datum, N)
	for i := range eds {
		eds[i] = h264.NewFrameData(p)
		frmD[i] = rt.Register(&frm[i])
		hdrD[i] = rt.Register(&hdr[i])
		edsD[i] = rt.Register(eds[i])
		picD[i] = rt.Register(&pics[i])
	}
	pib := h264.NewPIB(2*N + 2)
	dpb := h264.NewDPB(N+2, p)
	pis := make([]*h264.PicInfo, N)
	var prevPic *h264.Picture
	decoded := 0

	for k := 0; k < nframes; k++ {
		k := k
		s := k % N
		prev := (k - 1 + N) % N

		// The read and decode stages can fail on a corrupt stream: Go makes
		// the error the task's outcome, skipping the dependent stages and
		// surfacing at the final TaskwaitCtx instead of panicking a worker.
		rt.Go(func(tc *ompss.TC) error {
			payload, ok, err := sr.Next()
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("stream ended early at frame %d", k)
			}
			frm[s] = payload
			tc.Compute(h264.ReadFrameCost(len(payload)))
			return nil
		}, ompss.InOut(rc), ompss.Out(frmD[s]), ompss.Label("read"))

		rt.Go(func(tc *ompss.TC) error {
			h, r, err := h264.DecodeFrameHeader(frm[s])
			if err != nil {
				return err
			}
			hdr[s], br[s] = h, r
			tc.Critical("pib", func() { pis[s] = pib.Fetch() })
			return nil
		}, ompss.InOut(nc), ompss.In(frmD[s]), ompss.Out(hdrD[s]),
			ompss.Cost(h264.ParseCost()), ompss.Label("parse"))

		rt.Go(func(*ompss.TC) error {
			return h264.EntropyDecodeFrame(p, br[s], hdr[s], eds[s])
		}, ompss.InOut(ec), ompss.In(hdrD[s]), ompss.Out(edsD[s]),
			ompss.Cost(h264.EDMBCost()*time.Duration(p.MBW()*p.MBH())), ompss.Label("entropy"))

		rt.Task(func(tc *ompss.TC) {
			tc.Critical("dpb", func() { pics[s] = dpb.Fetch(k, 2) })
			ref := pics[s]
			if k > 0 {
				ref = pics[prev]
			}
			h264.ReconstructFrame(p, pics[s].Img, ref.Img, eds[s])
		}, ompss.InOut(dc), ompss.In(edsD[s]), ompss.Out(picD[s]),
			ompss.Cost(h264.ReconMBCost()*time.Duration(p.MBW()*p.MBH())), ompss.Label("reconstruct"))

		rt.Task(func(tc *ompss.TC) {
			decoded++
			tc.Critical("dpb", func() {
				dpb.Release(pics[s]) // output hold
				if prevPic != nil {
					dpb.Release(prevPic) // reference hold of the previous frame
				}
				prevPic = pics[s]
			})
			tc.Critical("pib", func() { pib.Release(pis[s]) })
		}, ompss.InOut(oc), ompss.In(picD[s]),
			ompss.Cost(h264.OutputFrameCost(p.W*p.H)), ompss.Label("output"))

		// Listing 1's loop gate.
		rt.TaskwaitOn(rc)
	}
	if err := rt.TaskwaitCtx(context.Background()); err != nil {
		panic(err)
	}
	if prevPic != nil {
		dpb.Release(prevPic)
	}
	fmt.Printf("decoded %d frames through the Listing 1 pipeline\n", decoded)
}
