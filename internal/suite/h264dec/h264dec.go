// Package h264dec is the h264dec benchmark of the suite — the paper's §3
// case study and its Table 1 problem child (mean 0.73, collapsing to 0.42
// at 32 cores for OmpSs).
//
// Three variants decode the same toy-codec bitstream:
//
//   - RunSeq: the five stages in a plain loop.
//   - RunOmpSs: Listing 1 — one task per pipeline stage per iteration,
//     linked by inout stage-context dependences, manual renaming through
//     circular buffers of depth NBuf, `taskwait on` the read context as the
//     loop condition, and PIB/DPB recycling hidden from the dependence
//     system behind named criticals. Reconstruction granularity is
//     controlled by GroupRows (MB rows per reconstruction task): small
//     groups expose more parallelism but multiply per-task overhead —
//     the granularity dilemma of §4.
//   - RunPthreads: the optimized line-decoding design (Chi & Juurlink): a
//     driver thread performs read/parse/entropy-decode/output, worker
//     threads reconstruct macroblock lines in a 2-D wavefront synchronized
//     by per-line atomic progress counters, within and across frames.
package h264dec

import (
	"context"
	"fmt"
	"time"

	"ompssgo/internal/check"
	"ompssgo/internal/h264"
	"ompssgo/internal/img"
	"ompssgo/internal/media"
	"ompssgo/ompss"
	"ompssgo/pthread"
)

// Workload parameterizes one run.
type Workload struct {
	W, H        int
	Frames      int
	QP, GOP     int
	SearchRange int
	NBuf        int // circular pipeline depth (Listing 1's N)
	GroupRows   int // OmpSs reconstruction granularity (MB rows per task)
	Seed        int64
}

// Default is the harness workload. GroupRows=1 is the finest task
// granularity that keeps per-task overhead tolerable; the granularity
// ablation sweeps coarser groupings.
func Default() Workload {
	return Workload{W: 192, H: 128, Frames: 48, QP: 26, GOP: 8, SearchRange: 4,
		NBuf: 6, GroupRows: 1, Seed: 12}
}

// Small is the test workload.
func Small() Workload {
	return Workload{W: 96, H: 64, Frames: 8, QP: 26, GOP: 4, SearchRange: 4,
		NBuf: 3, GroupRows: 2, Seed: 12}
}

// Instance is a prepared benchmark instance: the encoded bitstream, and the
// OmpSs variant's working buffers once it has run.
type Instance struct {
	W       Workload
	p       h264.Params
	bs      []byte
	nframes int
	off     int
	bufs    *pipelineBufs
}

// pipelineBufs is the OmpSs variant's working set: the entropy-decode ring
// and the picture pools. It is allocated on the instance's first run and
// reused by every later one.
type pipelineBufs struct {
	fds []*h264.FrameData
	pib *h264.PIB
	dpb *h264.DPB
}

// buffers returns the OmpSs variant's working set in the state a fresh
// allocation has: frame data zeroed, every PIB entry and DPB picture free,
// every pixel zero. A run that failed or was cancelled leaves references
// held and stale pixels behind; the next run must see neither.
func (in *Instance) buffers() *pipelineBufs {
	n := in.W.NBuf
	if in.bufs == nil {
		b := &pipelineBufs{fds: make([]*h264.FrameData, n)}
		for i := range b.fds {
			b.fds[i] = h264.NewFrameData(in.p)
		}
		// The parse stage can run ahead of the output stage by up to ~3N
		// iterations in the worst legal schedule: parses are throttled (via
		// the header-slot WAR) by entropy decodes N frames back, those (via
		// the frame-data WAR) by reconstructions another N back, and those
		// (via the slot-recycle gate) by outputs another N back. The
		// PicInfo pool must cover that whole depth — a PicInfo is fetched at
		// parse and released at output. Pictures are bounded by the
		// slot-recycle gate directly.
		b.pib = h264.NewPIB(3*n + 2)
		b.dpb = h264.NewDPB(n+2, in.p)
		in.bufs = b
		return b
	}
	b := in.bufs
	for _, fd := range b.fds {
		fd.Hdr = h264.Header{}
		clear(fd.MBs)
	}
	b.pib.Reset()
	b.dpb.Reset()
	return b
}

// New synthesizes a video and encodes it.
func New(w Workload) *Instance {
	p := h264.Params{W: w.W, H: w.H, QP: w.QP, GOP: w.GOP, SearchRange: w.SearchRange}
	frames := media.Video(w.Frames, w.W, w.H, w.Seed)
	bs, err := h264.EncodeSequence(p, frames)
	if err != nil {
		panic(fmt.Sprintf("h264dec: encode failed: %v", err))
	}
	return NewFromStream(w, bs)
}

// NewFromStream builds an instance around an existing bitstream (the codec
// CLI uses this to decode files). The workload's pipeline knobs (NBuf,
// GroupRows) still apply; the coded parameters come from the stream header.
func NewFromStream(w Workload, bs []byte) *Instance {
	in := &Instance{W: w, bs: bs}
	var err error
	in.p, in.nframes, in.off, err = h264.ParseStreamHeader(bs)
	if err != nil {
		panic(fmt.Sprintf("h264dec: stream parse failed: %v", err))
	}
	return in
}

// Stream returns the instance's encoded bitstream, reusable across
// NewFromStream instances (the serving path encodes once and re-parses per
// request).
func (in *Instance) Stream() []byte { return in.bs }

// Name returns the Table 1 row name.
func (in *Instance) Name() string { return "h264dec" }

// RunSeq decodes with the reference sequential decoder.
func (in *Instance) RunSeq() uint64 {
	frames, err := h264.Decode(in.bs)
	if err != nil {
		panic(err)
	}
	sums := make([]uint64, len(frames))
	for i, f := range frames {
		sums[i] = f.Checksum()
	}
	return check.Combine(sums)
}

// edCost is the entropy-decode cost of one frame.
func (in *Instance) edCost() int { return in.p.MBW() * in.p.MBH() }

// ---------------------------------------------------------------------------
// Pthreads variant: driver + wavefront line decoding.

// RunPthreads decodes with one driver thread (read/parse/output) and
// Threads()−1 workers that entropy-decode whole frames (distributed
// round-robin — independent frame payloads decode concurrently, unlike the
// Listing 1 task pipeline whose ED tasks chain on the ec context) and
// reconstruct macroblock lines in a wavefront. With one thread, the driver
// decodes frames serially itself.
func (in *Instance) RunPthreads(main *pthread.Thread) uint64 {
	p := in.p
	api := main.API()
	nw := api.Threads() - 1 // ED + reconstruction workers
	mbw, mbh := p.MBW(), p.MBH()
	nf := in.nframes

	fdPool := make([]*h264.FrameData, in.W.NBuf)
	for i := range fdPool {
		fdPool[i] = h264.NewFrameData(p)
	}
	// The driver runs at most as far ahead as the DPB lets it (NBuf+2
	// pictures in flight); the PicInfo pool must cover the same depth.
	pib := h264.NewPIB(in.W.NBuf + 3)
	dpb := h264.NewDPB(in.W.NBuf+2, p)
	mu := api.NewMutex()

	pics := make([]*h264.Picture, nf) // frame -> picture (driver writes pre-publish)
	pis := make([]*h264.PicInfo, nf)
	hdrs := make([]h264.Header, nf)
	brs := make([]*h264.BitReader, nf)
	parseDone := api.NewSpinVar() // frames read+parsed (driver, in order)
	reconDone := api.NewSpinVar() // frames fully reconstructed (in order)
	rowsDone := make([]*pthread.SpinVar, nf)
	edFlag := make([]*pthread.SpinVar, nf)   // per frame: entropy decode complete
	mbProg := make([][]*pthread.SpinVar, nf) // per frame, per MB row: MBs completed
	for f := 0; f < nf; f++ {
		rowsDone[f] = api.NewSpinVar()
		edFlag[f] = api.NewSpinVar()
		mbProg[f] = make([]*pthread.SpinVar, mbh)
		for r := 0; r < mbh; r++ {
			mbProg[f][r] = api.NewSpinVar()
		}
	}
	sums := make([]uint64, nf)

	driver := func(t *pthread.Thread) {
		sr := h264.NewStreamReader(in.bs, in.off)
		out := 0
		deliver := func() {
			pic := pics[out]
			sums[out] = pic.Img.Checksum()
			t.Compute(h264.OutputFrameCost(p.W * p.H))
			t.Lock(mu)
			dpb.Release(pic) // output reference
			if out >= 1 {
				dpb.Release(pics[out-1]) // frame out's recon is done: ref use over
			}
			pib.Release(pis[out])
			t.Unlock(mu)
			out++
		}
		for f := 0; f < nf; f++ {
			payload, ok, err := sr.Next()
			if err != nil || !ok {
				panic(fmt.Sprintf("h264dec: read stage: %v", err))
			}
			t.Compute(h264.ReadFrameCost(len(payload)))
			hdr, br, err := h264.DecodeFrameHeader(payload)
			if err != nil {
				panic(err)
			}
			t.Compute(h264.ParseCost())
			t.Lock(mu)
			pi := pib.Fetch()
			t.Unlock(mu)
			if pi == nil {
				panic("h264dec: PIB exhausted") // pool sized to pipeline depth
			}
			pi.Hdr = hdr
			pis[f] = pi
			// DPB fetch; recycle by delivering finished outputs.
			for {
				t.Lock(mu)
				pic := dpb.Fetch(f, 2) // held for output + as reference
				t.Unlock(mu)
				if pic != nil {
					pics[f] = pic
					break
				}
				t.WaitGE(reconDone, int64(out+1))
				deliver()
			}
			hdrs[f], brs[f] = hdr, br
			t.Store(parseDone, int64(f+1))
			if nw == 0 {
				// Single-threaded: entropy-decode and reconstruct inline.
				fd := fdPool[f%in.W.NBuf]
				if err := h264.EntropyDecodeFrame(p, br, hdr, fd); err != nil {
					panic(err)
				}
				t.Compute(h264.EDMBCost() * time.Duration(in.edCost()))
				var ref *img.Gray
				if f > 0 {
					ref = pics[f-1].Img
				} else {
					ref = pics[f].Img
				}
				h264.ReconstructFrame(p, pics[f].Img, ref, fd)
				t.Compute(h264.ReconMBCost() * time.Duration(mbw*mbh))
				t.Store(rowsDone[f], int64(mbh))
				t.Store(reconDone, int64(f+1))
			}
			for out < nf && t.Load(reconDone) > int64(out) {
				deliver()
			}
		}
		for out < nf {
			t.WaitGE(reconDone, int64(out+1))
			deliver()
		}
		// The final frame's reference hold is never released by a
		// successor; return it to the pool.
		t.Lock(mu)
		dpb.Release(pics[nf-1])
		t.Unlock(mu)
	}

	worker := func(t *pthread.Thread, id int) {
		for f := 0; f < nf; f++ {
			fd := fdPool[f%in.W.NBuf]
			if f%nw == id {
				// This worker owns frame f's entropy decode. The ED
				// buffer slot recycles once frame f−NBuf is fully
				// reconstructed.
				t.WaitGE(parseDone, int64(f+1))
				if f >= in.W.NBuf {
					t.WaitGE(reconDone, int64(f-in.W.NBuf+1))
				}
				if err := h264.EntropyDecodeFrame(p, brs[f], hdrs[f], fd); err != nil {
					panic(err)
				}
				t.Compute(h264.EDMBCost() * time.Duration(in.edCost()))
				t.Store(edFlag[f], 1)
			} else {
				t.WaitGE(edFlag[f], 1)
			}
			rec := pics[f].Img
			var ref *img.Gray
			if f > 0 {
				ref = pics[f-1].Img
			} else {
				ref = rec
			}
			isP := fd.Hdr.Type == h264.FrameP && f > 0
			for r := id; r < mbh; r += nw {
				if isP {
					needRows := (h264.RefRowsNeeded(p, r) + h264.MBSize - 1) / h264.MBSize
					t.WaitGE(rowsDone[f-1], int64(needRows))
				}
				for mbx := 0; mbx < mbw; mbx++ {
					if r > 0 {
						t.WaitGE(mbProg[f][r-1], int64(mbx+1))
					}
					h264.ReconstructMBAt(p, rec, ref, fd, mbx, r)
					t.Compute(h264.ReconMBCost())
					t.Add(mbProg[f][r], 1)
				}
				t.Touch(&rec.Pix[r*h264.MBSize*p.W], int64(h264.MBSize*p.W), true)
				// Publish contiguous row completion (rows finish in order
				// thanks to the wavefront waits).
				t.WaitGE(rowsDone[f], int64(r))
				t.Store(rowsDone[f], int64(r+1))
				if r == mbh-1 {
					// In-order commit: an I frame can outrun its
					// predecessor, but the done-counter must only advance
					// contiguously or the output stage would read
					// unfinished pictures.
					t.WaitGE(reconDone, int64(f))
					t.Store(reconDone, int64(f+1))
				}
			}
		}
	}

	var threads []*pthread.Thread
	for w := 0; w < nw; w++ {
		w := w
		threads = append(threads, main.Spawn("recon", func(t *pthread.Thread) { worker(t, w) }))
	}
	drv := main.Spawn("driver", func(t *pthread.Thread) { driver(t) })
	main.Join(drv)
	for _, th := range threads {
		main.Join(th)
	}
	return check.Combine(sums)
}

// ---------------------------------------------------------------------------
// OmpSs variant: the Listing 1 pipeline.

// RunOmpSs decodes with one task per pipeline stage per iteration, linked
// exactly as in the paper's Listing 1: stage contexts annotated inout chain
// same-stage tasks across iterations; circular buffers of depth NBuf rename
// the per-iteration data (removing WAR/WAW serialization); `taskwait on` the
// read context gates the loop; PIB/DPB recycling happens inside named
// criticals, hidden from the dependence system. Reconstruction is split into
// GroupRows-row tasks whose dependences encode the intra wavefront (previous
// group, same frame) and motion compensation (group g+1 of the previous
// frame, which covers the ±SearchRange reference rows).
func (in *Instance) RunOmpSs(rt ompss.API) uint64 {
	p := in.p
	mbw, mbh := p.MBW(), p.MBH()
	n := in.W.NBuf
	nf := in.nframes
	groupRows := in.W.GroupRows
	if groupRows < 1 {
		groupRows = 1
	}
	if groupRows > mbh {
		groupRows = mbh
	}
	ng := (mbh + groupRows - 1) / groupRows

	// Stage contexts (Listing 1's rc, nc, ec, oc) and the circular-buffer
	// keys all recur every iteration (slot reuse is the whole point of the
	// manual renaming), so the entire dependence working set is registered
	// once up front and every stage submits through handles.
	rc := rt.Register(new(int))
	pc := rt.Register(new(int))
	ec := rt.Register(new(int))
	oc := rt.Register(new(int))

	// Circular buffers (manual renaming).
	payloads := make([][]byte, n)
	hdrs := make([]h264.Header, n)
	brs := make([]*h264.BitReader, n)
	bufs := in.buffers()
	fds := bufs.fds
	payloadD := make([]*ompss.Datum, n)
	hdrD := make([]*ompss.Datum, n)
	fdD := make([]*ompss.Datum, n)
	for i := range fds {
		payloadD[i] = rt.Register(&payloads[i])
		hdrD[i] = rt.Register(&hdrs[i])
		fdD[i] = rt.Register(fds[i])
	}
	grpKeys := make([][]*ompss.Datum, n)
	for s := range grpKeys {
		grpKeys[s] = make([]*ompss.Datum, ng)
		for g := range grpKeys[s] {
			grpKeys[s][g] = rt.Register(new(int))
		}
	}
	// Slot-recycle gates: the output stage of frame k writes slotFree[slot],
	// and the reconstruction head of frame k+n — the task that fetches a
	// picture from the DPB — reads it. Without this edge nothing orders DPB
	// fetches against DPB releases (outputs), so a legal schedule that runs
	// every reconstruction before any output fetches nf pictures from an
	// n+2-deep pool: the small instances usually got lucky, the default
	// instance deadlocked the pipeline. With the gate, at most n frames are
	// fetched and not yet output, and the pool bound n+2 (outputs' holds
	// plus the previous frame's reference hold) is deterministic.
	slotFreeD := make([]*ompss.Datum, n)
	for i := range slotFreeD {
		slotFreeD[i] = rt.Register(new(int))
	}
	// Slot-relayed plumbing: each stage hands the next stage the pooled
	// resources it claimed, staying clear of slot-reuse races (the relay is
	// protected by the same WAR dependences that protect the payload data).
	pisParse := make([]*h264.PicInfo, n)
	pisED := make([]*h264.PicInfo, n)
	pics := make([]*h264.Picture, n)
	refUsed := make([]*h264.Picture, n)
	donePics := make([]*h264.Picture, n)
	doneRefs := make([]*h264.Picture, n)
	donePis := make([]*h264.PicInfo, n)

	pib, dpb := bufs.pib, bufs.dpb
	sr := h264.NewStreamReader(in.bs, in.off)
	sums := make([]uint64, nf)
	var lastPic *h264.Picture

	edMBs := mbw * mbh
	groupCost := func(g int) time.Duration {
		rows := groupRows
		if (g+1)*groupRows > mbh {
			rows = mbh - g*groupRows
		}
		return h264.ReconMBCost() * time.Duration(rows*mbw)
	}
	frameBytes := int64(p.W * p.H)

	for k := 0; k < nf; k++ {
		k := k
		slot := k % n
		prevSlot := (k - 1 + n) % n

		// Read stage. Error-returning spawn: a truncated stream becomes the
		// task's outcome and skips the dependent stages instead of
		// panicking the worker.
		rt.Go(func(tc *ompss.TC) error {
			payload, ok, err := sr.Next()
			if err != nil {
				return fmt.Errorf("h264dec: read stage: %w", err)
			}
			if !ok {
				return fmt.Errorf("h264dec: read stage: stream ended at frame %d of %d", k, nf)
			}
			payloads[slot] = payload
			tc.Compute(h264.ReadFrameCost(len(payload)))
			return nil
		}, ompss.InOut(rc), ompss.Out(payloadD[slot]), ompss.Label("read"))

		// Parse stage: header + PIB fetch under critical.
		rt.Go(func(tc *ompss.TC) error {
			hdr, br, err := h264.DecodeFrameHeader(payloads[slot])
			if err != nil {
				return err
			}
			hdrs[slot], brs[slot] = hdr, br
			tc.Critical("pib", func() {
				pi := pib.Fetch()
				if pi == nil {
					err = fmt.Errorf("h264dec: PIB exhausted at frame %d", k)
					return
				}
				pi.Hdr = hdr
				pisParse[slot] = pi
			})
			return err
		}, ompss.InOut(pc), ompss.In(payloadD[slot]), ompss.Out(hdrD[slot]),
			ompss.Cost(h264.ParseCost()), ompss.Label("parse"))

		// Entropy decode stage (serial chain via ec).
		rt.Go(func(tc *ompss.TC) error {
			if err := h264.EntropyDecodeFrame(p, brs[slot], hdrs[slot], fds[slot]); err != nil {
				return err
			}
			pisED[slot] = pisParse[slot]
			return nil
		}, ompss.InOut(ec), ompss.In(hdrD[slot]), ompss.OutSized(fdD[slot], int64(edMBs)*1064),
			ompss.Cost(h264.EDMBCost()*time.Duration(edMBs)), ompss.Label("ed"))

		// Reconstruction: ng row-group tasks forming the wavefront.
		for g := 0; g < ng; g++ {
			g := g
			clauses := []ompss.Clause{
				ompss.In(fdD[slot]),
				ompss.OutSized(grpKeys[slot][g], frameBytes/int64(ng)),
				ompss.Cost(groupCost(g)),
				ompss.Label("recon"),
			}
			if g == 0 {
				// DPB backpressure: wait for the output that recycles this
				// slot's previous picture (see slotFreeD above).
				clauses = append(clauses, ompss.In(slotFreeD[slot]))
			} else {
				clauses = append(clauses, ompss.In(grpKeys[slot][g-1]))
			}
			if k > 0 {
				gref := g + 1
				if gref > ng-1 {
					gref = ng - 1
				}
				clauses = append(clauses, ompss.In(grpKeys[prevSlot][gref]))
			}
			rt.Task(func(tc *ompss.TC) {
				if g == 0 {
					tc.Critical("dpb", func() {
						pic := dpb.Fetch(k, 2)
						if pic == nil {
							panic("h264dec: DPB exhausted")
						}
						pics[slot] = pic
						refUsed[slot] = nil
						if k > 0 {
							refUsed[slot] = pics[prevSlot]
						}
					})
				}
				rec := pics[slot].Img
				ref := rec
				if k > 0 {
					ref = refUsed[slot].Img
				}
				r0 := g * groupRows
				r1 := r0 + groupRows
				if r1 > mbh {
					r1 = mbh
				}
				h264.ReconstructRows(p, rec, ref, fds[slot], r0, r1)
				if g == ng-1 {
					// Hand the output stage race-free pointers.
					donePics[slot] = pics[slot]
					doneRefs[slot] = refUsed[slot]
					donePis[slot] = pisED[slot]
				}
			}, clauses...)
		}

		// Output stage.
		rt.Task(func(tc *ompss.TC) {
			pic := donePics[slot]
			sums[k] = pic.Img.Checksum()
			tc.Critical("dpb", func() {
				dpb.Release(pic) // output reference
				if ref := doneRefs[slot]; ref != nil {
					dpb.Release(ref) // this frame is done reading its reference
				}
			})
			tc.Critical("pib", func() { pib.Release(donePis[slot]) })
			if k == nf-1 {
				lastPic = pic
			}
		}, ompss.InOut(oc), ompss.In(grpKeys[slot][ng-1]), ompss.Out(slotFreeD[slot]),
			ompss.Cost(h264.OutputFrameCost(p.W*p.H)), ompss.Label("output"))

		// Listing 1's loop gate: the read stage must have completed before
		// the next iteration's EOF check.
		rt.TaskwaitOn(rc)
	}
	// Context-aware barrier: a stage error (bad stream, exhausted pool)
	// propagated through the graph by skipping the dependent stages; it
	// surfaces here instead of unwinding a worker mid-pipeline.
	if err := rt.TaskwaitCtx(context.Background()); err != nil {
		panic(fmt.Sprintf("h264dec: pipeline failed: %v", err))
	}
	if lastPic != nil {
		dpb.Release(lastPic) // the final frame's reference hold
	}
	return check.Combine(sums)
}
