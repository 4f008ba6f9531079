// Package distkern adapts suite benchmarks to the distributed execution
// domain: each workload's task bodies become registered kernels
// (dist.RegisterKernel) operating on opaque byte payloads, and a RunX
// driver submits the same task structure RunOmpSs uses against a
// *dist.RT. Checksums are bit-identical to the in-process RunSeq
// reference: images and digests are byte payloads as-is, and kmeans
// encodes float64/int64 values with math.Float64bits round-trips, which
// preserve every bit.
//
// Any binary that drives these workloads (tests, cmd/ompss-trace) must
// import this package in the worker path too — the same import registers
// the kernels in the spawned worker processes, since they re-exec the
// same binary.
package distkern

import (
	"encoding/binary"
	"math"

	"ompssgo/internal/check"
	"ompssgo/internal/dist"
	"ompssgo/internal/img"
	colorkern "ompssgo/internal/kernels/color"
	kmkern "ompssgo/internal/kernels/kmeans"
	md5kern "ompssgo/internal/kernels/md5"
	rotkern "ompssgo/internal/kernels/rotate"
	"ompssgo/internal/media"
	"ompssgo/internal/suite/kmeans"
	"ompssgo/internal/suite/md5"
	"ompssgo/internal/suite/rgbcmy"
	"ompssgo/internal/suite/rotate"
)

// ---- wire encoding helpers (little-endian, bit-exact floats) ----

func putU32(b []byte, v uint32) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	return append(b, tmp[:]...)
}

func getU32(b []byte) (uint32, []byte) { return binary.LittleEndian.Uint32(b), b[4:] }

func putF64(b []byte, v float64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
	return append(b, tmp[:]...)
}

func encodeFloats(vals []float64) []byte {
	b := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		b = putF64(b, v)
	}
	return b
}

func decodeFloats(b []byte) []float64 {
	vals := make([]float64, len(b)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return vals
}

func encodeInts(vals []int) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(int64(v)))
	}
	return b
}

func decodeInts(b []byte) []int {
	vals := make([]int, len(b)/8)
	for i := range vals {
		vals[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
	}
	return vals
}

// encodePartial lays out a kmeans partial as K×Dim sums, K counts, moved.
func encodePartial(pa *kmkern.Partial) []byte {
	b := make([]byte, 0, 8*(len(pa.Sums)+len(pa.Counts)+1))
	for _, v := range pa.Sums {
		b = putF64(b, v)
	}
	for _, c := range pa.Counts {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], uint64(int64(c)))
		b = append(b, tmp[:]...)
	}
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], uint64(int64(pa.Moved)))
	return append(b, tmp[:]...)
}

func decodePartial(b []byte, k, dim int) *kmkern.Partial {
	pa := &kmkern.Partial{Sums: decodeFloats(b[:8*k*dim]), Counts: make([]int, k)}
	rest := b[8*k*dim:]
	for i := 0; i < k; i++ {
		pa.Counts[i] = int(int64(binary.LittleEndian.Uint64(rest[8*i:])))
	}
	pa.Moved = int(int64(binary.LittleEndian.Uint64(rest[8*k:])))
	return pa
}

func partialBytes(k, dim int) int64 { return int64(8 * (k*dim + k + 1)) }

// ---- kernel registration ----

func init() {
	// rotate: args = w, h, lo, hi (u32) + angle (f64); in[0] the full
	// source image; out[0] the destination rows [lo, hi).
	dist.RegisterKernel("suite.rotate", func(args []byte, in, out [][]byte) error {
		w, args := getU32(args)
		h, args := getU32(args)
		lo, args := getU32(args)
		hi, args := getU32(args)
		angle := math.Float64frombits(binary.LittleEndian.Uint64(args))
		src := &img.RGB{W: int(w), H: int(h), Pix: in[0]}
		rotkern.RowsInto(out[0], src, angle, int(lo), int(hi))
		return nil
	})

	// rgbcmy: args = w, h, lo, hi (u32); in[0] the full source; out[0..2]
	// the C, M, Y plane rows [lo, hi).
	dist.RegisterKernel("suite.rgbcmy", func(args []byte, in, out [][]byte) error {
		w, args := getU32(args)
		_, args = getU32(args) // h: the views below need rows [lo, hi) only
		lo, args := getU32(args)
		hi, _ := getU32(args)
		// The conversion is pointwise, so views of just rows [lo, hi)
		// convert in place: row 0 of each view is row lo.
		n := int(hi - lo)
		src := &img.RGB{W: int(w), H: n, Pix: in[0][3*int(lo)*int(w) : 3*int(hi)*int(w)]}
		dst := &colorkern.CMY{
			C: &img.Gray{W: int(w), H: n, Pix: out[0]},
			M: &img.Gray{W: int(w), H: n, Pix: out[1]},
			Y: &img.Gray{W: int(w), H: n, Pix: out[2]},
		}
		colorkern.RGBToCMYRows(dst, src, 0, n)
		return nil
	})

	// md5: in[0] the buffer; out[0] its 16-byte digest.
	dist.RegisterKernel("suite.md5", func(args []byte, in, out [][]byte) error {
		d := md5kern.Sum(in[0])
		copy(out[0], d[:])
		return nil
	})

	// kmeans-assign: args = k, dim, npts (u32); in[0] centroids, in[1] the
	// chunk's points; out[0] (InOut) the chunk's assignment as int64s,
	// out[1] the encoded partial. Chunk-local indices: arithmetic and
	// accumulation order match AssignRange over the global arrays exactly.
	dist.RegisterKernel("suite.kmeans-assign", func(args []byte, in, out [][]byte) error {
		k, args := getU32(args)
		dim, args := getU32(args)
		npts, _ := getU32(args)
		cent := decodeFloats(in[0])
		prob := &kmkern.Problem{Points: decodeFloats(in[1]), N: int(npts), Dim: int(dim), K: int(k)}
		assign := decodeInts(out[0])
		pa := prob.NewPartial()
		prob.AssignRange(cent, assign, pa, 0, int(npts))
		copy(out[0], encodeInts(assign))
		copy(out[1], encodePartial(pa))
		return nil
	})

	// kmeans-reduce: args = k, dim (u32); in[*] the chunk partials in
	// chunk order; out[0] (InOut) the centroids, out[1] the moved count.
	dist.RegisterKernel("suite.kmeans-reduce", func(args []byte, in, out [][]byte) error {
		k, args := getU32(args)
		dim, _ := getU32(args)
		prob := &kmkern.Problem{Dim: int(dim), K: int(k)}
		merged := prob.NewPartial()
		for _, pb := range in {
			merged.Merge(decodePartial(pb, int(k), int(dim)))
		}
		cent := decodeFloats(out[0])
		moved := prob.UpdateCentroids(cent, merged)
		copy(out[0], encodeFloats(cent))
		binary.LittleEndian.PutUint64(out[1], uint64(int64(moved)))
		return nil
	})
}

// ---- drivers ----

// RunRotate runs the rotate workload on the distributed domain: one task
// per destination row block, all reading the migrated source image.
// Returns the destination checksum (compare against rotate RunSeq).
func RunRotate(rt *dist.RT, w rotate.Workload) (uint64, error) {
	src := media.Image(w.W, w.H, w.Seed)
	srcD := rt.Register(src.Pix)
	rb := max(w.RowBlock, 1)
	dstD := make([]*dist.Datum, 0, (w.H+rb-1)/rb)
	for lo := 0; lo < w.H; lo += rb {
		hi := min(lo+rb, w.H)
		args := putU32(putU32(putU32(putU32(nil, uint32(w.W)), uint32(w.H)), uint32(lo)), uint32(hi))
		args = putF64(args, w.Angle)
		d := rt.Register(make([]byte, 3*(hi-lo)*w.W))
		dstD = append(dstD, d)
		rt.Task("suite.rotate", args, dist.In(srcD), dist.Out(d))
	}
	if err := rt.Taskwait(); err != nil {
		return 0, err
	}
	dst := img.NewRGB(w.W, w.H)
	for i, d := range dstD {
		copy(dst.Pix[3*i*rb*w.W:], rt.Read(d))
	}
	return dst.Checksum(), nil
}

// RunRGBCMY runs the rgbcmy workload: Iters rounds of row-block
// conversion tasks with no taskwait between rounds — dependence renaming
// breaks the WAW chains on the output blocks, and the source image stays
// cache-resident on the workers across rounds. Returns the CMY checksum.
func RunRGBCMY(rt *dist.RT, w rgbcmy.Workload) (uint64, error) {
	src := media.Image(w.W, w.H, w.Seed)
	srcD := rt.Register(src.Pix)
	rb := max(w.RowBlock, 1)
	type planes struct{ c, m, y *dist.Datum }
	pl := make([]planes, 0, (w.H+rb-1)/rb)
	for lo := 0; lo < w.H; lo += rb {
		n := (min(lo+rb, w.H) - lo) * w.W
		pl = append(pl, planes{
			c: rt.Register(make([]byte, n)),
			m: rt.Register(make([]byte, n)),
			y: rt.Register(make([]byte, n)),
		})
	}
	for it := 0; it < w.Iters; it++ {
		for i, p := range pl {
			lo := i * rb
			args := putU32(putU32(putU32(putU32(nil, uint32(w.W)), uint32(w.H)), uint32(lo)), uint32(min(lo+rb, w.H)))
			rt.Task("suite.rgbcmy", args,
				dist.In(srcD), dist.Out(p.c), dist.Out(p.m), dist.Out(p.y))
		}
	}
	if err := rt.Taskwait(); err != nil {
		return 0, err
	}
	dst := colorkern.NewCMY(w.W, w.H)
	for i, p := range pl {
		a := i * rb * w.W
		copy(dst.C.Pix[a:], rt.Read(p.c))
		copy(dst.M.Pix[a:], rt.Read(p.m))
		copy(dst.Y.Pix[a:], rt.Read(p.y))
	}
	return dst.Checksum(), nil
}

// RunMD5 runs the md5 workload: one hashing task per migrated buffer.
// Returns the folded digest checksum.
func RunMD5(rt *dist.RT, w md5.Workload) (uint64, error) {
	bufs := media.Buffers(w.NBuf, w.BufSize, w.Seed)
	digD := make([]*dist.Datum, len(bufs))
	for i, b := range bufs {
		bufD := rt.Register(b)
		digD[i] = rt.Register(make([]byte, md5kern.Size))
		rt.Task("suite.md5", nil, dist.In(bufD), dist.Out(digD[i]))
	}
	if err := rt.Taskwait(); err != nil {
		return 0, err
	}
	sums := make([]uint64, len(bufs))
	for i := range bufs {
		sums[i] = check.Bytes(rt.Read(digD[i]))
	}
	return check.Combine(sums), nil
}

// RunKMeans runs the kmeans workload: per iteration, one assignment task
// per point chunk (centroids migrate out, assignment blocks live on the
// workers via InOut version chains) and one reduction task merging the
// partials in chunk order, with a taskwait per Lloyd iteration as
// in-process. Returns check.Floats(centroids) ^ check.Ints(assign).
func RunKMeans(rt *dist.RT, w kmeans.Workload) (uint64, error) {
	pts, _ := media.Points(w.N, w.Dim, w.K, w.Seed)
	prob := &kmkern.Problem{Points: pts, N: w.N, Dim: w.Dim, K: w.K}
	centD := rt.Register(encodeFloats(prob.InitCentroids()))
	movedD := rt.Register(make([]byte, 8))
	ch := max(w.Chunk, 1)
	nc := (w.N + ch - 1) / ch
	size := func(c int) int { return min((c+1)*ch, w.N) - c*ch } // points in chunk c

	ptsD := make([]*dist.Datum, nc)
	assignD := make([]*dist.Datum, nc)
	partD := make([]*dist.Datum, nc)
	for c := range ptsD {
		lo := c * ch
		ptsD[c] = rt.Register(encodeFloats(pts[lo*w.Dim : (lo+size(c))*w.Dim]))
		init := make([]int, size(c))
		for i := range init {
			init[i] = -1
		}
		assignD[c] = rt.Register(encodeInts(init))
		partD[c] = rt.Register(make([]byte, partialBytes(w.K, w.Dim)))
	}

	redArgs := putU32(putU32(nil, uint32(w.K)), uint32(w.Dim))
	for it := 0; it < w.MaxIter; it++ {
		for c := range ptsD {
			args := putU32(putU32(putU32(nil, uint32(w.K)), uint32(w.Dim)), uint32(size(c)))
			rt.Task("suite.kmeans-assign", args,
				dist.In(centD), dist.In(ptsD[c]), dist.InOut(assignD[c]), dist.Out(partD[c]))
		}
		clauses := make([]dist.Clause, 0, nc+2)
		for c := range partD {
			clauses = append(clauses, dist.In(partD[c]))
		}
		clauses = append(clauses, dist.InOut(centD), dist.Out(movedD))
		rt.Task("suite.kmeans-reduce", redArgs, clauses...)
		if err := rt.Taskwait(); err != nil {
			return 0, err
		}
		moved := int(int64(binary.LittleEndian.Uint64(rt.Read(movedD))))
		if moved == 0 {
			break
		}
	}

	cent := decodeFloats(rt.Read(centD))
	assign := make([]int, 0, w.N)
	for c := range assignD {
		assign = append(assign, decodeInts(rt.Read(assignD[c]))...)
	}
	return check.Floats(cent) ^ check.Ints(assign), nil
}

// Workloads maps workload names to (driver, sequential-reference) pairs
// at the Small scale — what the dist-smoke CI leg and the tests iterate.
type Workload struct {
	Name string
	Run  func(*dist.RT) (uint64, error)
	Seq  func() uint64
}

// Small returns the test-scale workload set.
func Small() []Workload {
	return []Workload{
		{"rotate",
			func(rt *dist.RT) (uint64, error) { return RunRotate(rt, rotate.Small()) },
			func() uint64 { return rotate.New(rotate.Small()).RunSeq() }},
		{"rgbcmy",
			func(rt *dist.RT) (uint64, error) { return RunRGBCMY(rt, rgbcmy.Small()) },
			func() uint64 { return rgbcmy.New(rgbcmy.Small()).RunSeq() }},
		{"md5",
			func(rt *dist.RT) (uint64, error) { return RunMD5(rt, md5.Small()) },
			func() uint64 { return md5.New(md5.Small()).RunSeq() }},
		{"kmeans",
			func(rt *dist.RT) (uint64, error) { return RunKMeans(rt, kmeans.Small()) },
			func() uint64 { return kmeans.New(kmeans.Small()).RunSeq() }},
	}
}

// Default returns the bench-scale workload set.
func Default() []Workload {
	return []Workload{
		{"rotate",
			func(rt *dist.RT) (uint64, error) { return RunRotate(rt, rotate.Default()) },
			func() uint64 { return rotate.New(rotate.Default()).RunSeq() }},
		{"rgbcmy",
			func(rt *dist.RT) (uint64, error) { return RunRGBCMY(rt, rgbcmy.Default()) },
			func() uint64 { return rgbcmy.New(rgbcmy.Default()).RunSeq() }},
		{"md5",
			func(rt *dist.RT) (uint64, error) { return RunMD5(rt, md5.Default()) },
			func() uint64 { return md5.New(md5.Default()).RunSeq() }},
		{"kmeans",
			func(rt *dist.RT) (uint64, error) { return RunKMeans(rt, kmeans.Default()) },
			func() uint64 { return kmeans.New(kmeans.Default()).RunSeq() }},
	}
}
