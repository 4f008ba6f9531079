// Package dist is the multi-process execution domain: a coordinator
// process runs the dependence tracker (the same internal/core graph the
// native and simulated backends drive) while N worker processes — child
// processes of the same binary, connected over Unix domain sockets —
// execute task bodies against migrated datum versions.
//
// Ownership and transfer are driven by the version chains of the renaming
// layer (internal/core/rename.go): every registered datum is a renameable
// []byte payload whose canonical storage lives in the coordinator. A task
// dispatched to worker W triggers copy-in of the version instances its
// clauses bind; a per-worker cache keyed by (datum, version) makes
// repeated readers of the same instance free; a writer produces a new
// version whose bytes ride back on the completion message; and chain drain
// writes the program-order last good instance back onto canonical storage
// exactly as it does in-process. Poisoned-writer and skip-on-error
// semantics carry over the wire unchanged: a task failure (or a worker
// crash, surfaced as workerLostError) poisons its output version, skips its
// dependents, and leaves every other worker's tasks executing.
//
// Task bodies are closures and do not serialize, so execution is by
// registered kernel name plus opaque serialized args: both the coordinator
// and the workers run the same binary, the program registers its kernels
// at init (RegisterKernel), and MaybeWorker diverts a child process into
// the worker loop before main proper runs.
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"

	"ompssgo/internal/obs"
)

// MaxFrame bounds one frame's payload. The largest legitimate frame
// carries one task's copy-in set or one task's produced outputs — tens of
// megabytes for the suite's default workloads — so the cap is generous
// while still refusing absurd lengths from a corrupt or hostile stream
// before any decoding work happens.
const MaxFrame = 256 << 20

// Hello is the worker's first frame on its coordinator connection: which
// worker slot it claims, authenticated by MAC — the HMAC-SHA256 of the
// coordinator's Challenge nonce and the slot under the run's shared
// secret. The coordinator refuses a Hello whose MAC does not verify.
type Hello struct {
	Worker int
	PID    int
	MAC    []byte
	// Now is the worker's monotonic clock reading (nanoseconds since its
	// own trace epoch) sampled while composing this Hello. The server side
	// timestamps the challenge round-trip around it, which yields an
	// NTP-style offset estimate good to half the round-trip time — the
	// clock-alignment contract merged distributed traces rely on.
	Now int64
}

// Challenge is the coordinator's first frame on every inbound connection:
// a fresh random nonce the dialing worker must MAC in its Hello, so no
// unauthenticated peer can claim a slot or receive work.
type Challenge struct {
	Nonce []byte
}

// WireRef names one datum version a task observes, in one of two modes
// the wire carries explicitly (see the ref* constants): cached — Bytes
// nil, the worker already holds the (Datum, Ver) pair in its version cache
// (the coordinator mirrors every worker's cache deterministically, so it
// knows); shipped — Bytes non-nil, the content rides in this frame (a
// zero-length datum ships an empty, non-nil Bytes and decodes as one). The
// coordinator holds the bytes of every version, so whatever the worker's
// cache lacks it ships itself.
type WireRef struct {
	Datum uint64
	Ver   uint64
	Size  int64
	Bytes []byte
}

// WireOut names one datum version a task produces. The worker allocates
// the buffer; SeedFrom >= 0 seeds it from that index of the task's read
// set (the InOut copy-in), -1 leaves it zeroed (a pure Out overwrites by
// contract).
type WireOut struct {
	Datum    uint64
	Ver      uint64
	Size     int64
	SeedFrom int
}

// CacheKey identifies one cached payload instance.
type CacheKey struct {
	Datum uint64
	Ver   uint64
}

// TaskMsg dispatches one task. Reads is the transfer set in clause order:
// the first NIn entries are the kernel-visible In clauses (passed as in[]
// in that order), the rest are InOut read versions present only to seed
// outputs and the cache. Writes is one entry per Out/InOut clause in
// clause order (the kernel's out[]). Evict lists cache entries the worker
// must drop before inserting this task's reads — eviction is always
// coordinator-directed, which is what keeps the coordinator's mirror and
// the worker's cache in lockstep.
type TaskMsg struct {
	ID     uint64
	Kernel string
	Args   []byte
	NIn    int
	Reads  []WireRef
	Writes []WireOut
	Evict  []CacheKey
}

// ChainMsg dispatches a whole ready sub-DAG in one frame: Tasks in
// execution order, each link's sole unfinished predecessor being the link
// before it. The worker executes the links locally in order, reporting a
// DoneMsg per link; a failing link aborts the remainder (the coordinator
// resolves the unexecuted links as skipped — they depend on the failure).
// Only the first link carries an Evict list: the eviction plan is
// computed once against the whole chain's pinned set.
type ChainMsg struct {
	Tasks []*TaskMsg
}

// DoneMsg reports one task's completion. Outputs carries the produced
// bytes, one per TaskMsg.Writes entry, empty when Err is set (a failed
// writer's output is undefined and never leaves the worker — the wire
// form of the poisoned-writer rule).
type DoneMsg struct {
	ID      uint64
	Err     string
	Panic   bool
	Outputs [][]byte
	// Events piggybacks the worker-side trace batch recorded since the
	// previous Done (empty when the worker is not tracing). Timestamps are
	// on the worker's own clock; the coordinator realigns them with the
	// handshake offset at merge time. EventsDropped counts ring overflow
	// on the worker since the last drain.
	Events        []obs.Event
	EventsDropped uint64
}

// TraceMsg is the worker's final trace drain, sent right before it exits
// on Shutdown (or before a quiet EOF exit): whatever events accumulated
// after the last Done, plus the residual drop count. Slot names the
// sending worker so a coordinator can bucket it without connection state.
type TraceMsg struct {
	Slot    int
	Events  []obs.Event
	Dropped uint64
}

// Frame is the single message envelope every connection uses: exactly one
// field is set (Shutdown is the coordinator's drain order).
type Frame struct {
	Hello     *Hello
	Challenge *Challenge
	Task      *TaskMsg
	Chain     *ChainMsg
	Done      *DoneMsg
	Trace     *TraceMsg
	Shutdown  bool
}

// The wire format. A frame is a 4-byte big-endian length n (1..MaxFrame),
// one tag byte naming which Frame field is set, and that message's fields
// in declaration order, n-1 bytes in all: unsigned integers and counts as
// uvarints, signed ones zig-zag (encoding/binary's varint), a bool as one
// 0/1 byte, byte strings and strings as a uvarint length and the bytes, a
// slice as a uvarint count and its elements. Nothing is self-describing
// and nothing is optional, so both sides are straight-line code over the
// seven message kinds. Tags 5 and 6 are retired: decoders refuse them,
// and no new kind may take them.
const (
	tagHello byte = iota + 1
	tagChallenge
	tagTask
	tagChain
	_ // 5, retired
	_ // 6, retired
	tagDone
	tagTrace
	tagShutdown
)

// A WireRef's mode byte follows its Datum, Ver and Size: refShipped is
// followed by the content, refCached by nothing. Mode 2 is retired and
// refused.
const (
	refCached byte = iota
	refShipped
)

// inlineMax is the largest payload WriteFrame copies into its header
// buffer; anything longer is handed to the writer as its own segment.
const inlineMax = 1 << 10

// readChunk is the first allocation ReadFrame makes for a frame body; the
// buffer doubles from there only once it is full of bytes that arrived.
const readChunk = 64 << 10

// Smallest encodings of the repeated elements: a decoder refuses a count
// that could not fit in the bytes that remain before allocating for it.
const (
	minRef   = 4 // datum, ver, size, mode
	minOut   = 4 // datum, ver, size, seed
	minKey   = 2 // datum, ver
	minBytes = 1 // length
	minTask  = 7 // id, kernel, args, nin and three counts
	minEvent = 8 // seq, at, task, arg, sess, worker, kind, label length
)

var (
	errShort    = errors.New("field runs past the end of the frame")
	errCount    = errors.New("count exceeds the bytes that remain")
	errRange    = errors.New("integer out of range for its field")
	errBool     = errors.New("bool is neither 0 nor 1")
	errMode     = errors.New("unknown ref mode")
	errTag      = errors.New("unknown frame tag")
	errTrailing = errors.New("trailing bytes after the message")
	errEmpty    = errors.New("no field of the frame is set")
	errNilLink  = errors.New("nil task in a chain")
)

// cut marks a payload that follows buf[:at] on the wire without having
// been copied into buf.
type cut struct {
	at int
	p  []byte
}

// encoder gathers a frame: every small field is appended to buf, every
// payload above inlineMax is remembered as a cut.
type encoder struct {
	buf  []byte
	cuts []cut
	ext  int // payload bytes held by cuts
}

func (e *encoder) byte(b byte)      { e.buf = append(e.buf, b) }
func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }

func (e *encoder) bool(b bool) {
	if b {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) bytes(p []byte) {
	e.uvarint(uint64(len(p)))
	if len(p) <= inlineMax {
		e.buf = append(e.buf, p...)
		return
	}
	e.cuts = append(e.cuts, cut{at: len(e.buf), p: p})
	e.ext += len(p)
}

func (e *encoder) events(evs []obs.Event) {
	e.uvarint(uint64(len(evs)))
	for i := range evs {
		ev := &evs[i]
		e.uvarint(ev.Seq)
		e.varint(ev.At)
		e.uvarint(ev.Task)
		e.uvarint(ev.Arg)
		e.uvarint(ev.Sess)
		e.varint(int64(ev.Worker))
		e.byte(byte(ev.Kind))
		e.str(ev.Label)
	}
}

func (e *encoder) task(m *TaskMsg) {
	e.uvarint(m.ID)
	e.str(m.Kernel)
	e.bytes(m.Args)
	e.varint(int64(m.NIn))
	e.uvarint(uint64(len(m.Reads)))
	for i := range m.Reads {
		r := &m.Reads[i]
		e.uvarint(r.Datum)
		e.uvarint(r.Ver)
		e.varint(r.Size)
		if r.Bytes != nil {
			e.byte(refShipped)
			e.bytes(r.Bytes)
		} else {
			e.byte(refCached)
		}
	}
	e.uvarint(uint64(len(m.Writes)))
	for _, w := range m.Writes {
		e.uvarint(w.Datum)
		e.uvarint(w.Ver)
		e.varint(w.Size)
		e.varint(int64(w.SeedFrom))
	}
	e.uvarint(uint64(len(m.Evict)))
	for _, k := range m.Evict {
		e.uvarint(k.Datum)
		e.uvarint(k.Ver)
	}
}

func (e *encoder) frame(f *Frame) error {
	switch {
	case f.Hello != nil:
		m := f.Hello
		e.byte(tagHello)
		e.varint(int64(m.Worker))
		e.varint(int64(m.PID))
		e.bytes(m.MAC)
		e.varint(m.Now)
	case f.Challenge != nil:
		e.byte(tagChallenge)
		e.bytes(f.Challenge.Nonce)
	case f.Task != nil:
		e.byte(tagTask)
		e.task(f.Task)
	case f.Chain != nil:
		e.byte(tagChain)
		e.uvarint(uint64(len(f.Chain.Tasks)))
		for _, m := range f.Chain.Tasks {
			if m == nil {
				return errNilLink
			}
			e.task(m)
		}
	case f.Done != nil:
		m := f.Done
		e.byte(tagDone)
		e.uvarint(m.ID)
		e.str(m.Err)
		e.bool(m.Panic)
		e.uvarint(uint64(len(m.Outputs)))
		for _, o := range m.Outputs {
			e.bytes(o)
		}
		e.events(m.Events)
		e.uvarint(m.EventsDropped)
	case f.Trace != nil:
		m := f.Trace
		e.byte(tagTrace)
		e.varint(int64(m.Slot))
		e.events(m.Events)
		e.uvarint(m.Dropped)
	case f.Shutdown:
		e.byte(tagShutdown)
	default:
		return errEmpty
	}
	return nil
}

// WriteFrame encodes f as one frame and writes it to w. The small fields
// are gathered into one header buffer; every payload above inlineMax goes
// to the writer as its own segment, uncopied — one writev on a socket
// (net.Buffers), consecutive Writes on anything else, so callers whose
// frames may interleave serialise WriteFrame themselves (conn.sendMu).
// Nothing is written when f does not encode or exceeds MaxFrame.
func WriteFrame(w io.Writer, f *Frame) error {
	e := encoder{buf: make([]byte, 4, 256)} // length backpatched below
	if err := e.frame(f); err != nil {
		return fmt.Errorf("dist: encode frame: %w", err)
	}
	n := len(e.buf) - 4 + e.ext
	if n > MaxFrame {
		return fmt.Errorf("dist: frame of %d bytes exceeds MaxFrame (%d)", n, MaxFrame)
	}
	binary.BigEndian.PutUint32(e.buf, uint32(n))
	if len(e.cuts) == 0 {
		_, err := w.Write(e.buf)
		return err
	}
	segs := make(net.Buffers, 0, 2*len(e.cuts)+1)
	at := 0
	for _, c := range e.cuts {
		segs = append(segs, e.buf[at:c.at], c.p)
		at = c.at
	}
	segs = append(segs, e.buf[at:])
	_, err := segs.WriteTo(w)
	return err
}

// decoder consumes one frame body front to back. The first malformed
// field sets err and empties b, after which every read yields zero.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

func (d *decoder) byte() byte {
	if len(d.b) == 0 {
		d.fail(errShort)
		return 0
	}
	b := d.b[0]
	d.b = d.b[1:]
	return b
}

func (d *decoder) bool() bool {
	b := d.byte()
	if b > 1 {
		d.fail(errBool)
	}
	return b == 1
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(errShort)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail(errShort)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// int is a varint that must fit the platform's int.
func (d *decoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail(errRange)
		return 0
	}
	return int(v)
}

// view returns the next length-prefixed byte string as a slice of the
// frame's own buffer, capacity clipped to its length so that an append
// through it reallocates instead of running into the next field.
func (d *decoder) view() []byte {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail(errShort)
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// bytes is view with the empty string decoded as nil, the form every
// byte-string field but a shipped WireRef.Bytes takes.
func (d *decoder) bytes() []byte {
	if v := d.view(); len(v) > 0 {
		return v
	}
	return nil
}

func (d *decoder) str() string { return string(d.view()) }

// count reads an element count and refuses one whose elements, at min
// bytes apiece, could not fit in what is left of the frame.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/min) {
		d.fail(errCount)
		return 0
	}
	return int(n)
}

func (d *decoder) events() []obs.Event {
	n := d.count(minEvent)
	if n == 0 {
		return nil
	}
	evs := make([]obs.Event, n)
	for i := range evs {
		ev := &evs[i]
		ev.Seq = d.uvarint()
		ev.At = d.varint()
		ev.Task = d.uvarint()
		ev.Arg = d.uvarint()
		ev.Sess = d.uvarint()
		w := d.varint()
		if w < math.MinInt32 || w > math.MaxInt32 {
			d.fail(errRange)
		}
		ev.Worker = int32(w)
		ev.Kind = obs.Kind(d.byte())
		ev.Label = d.str()
		if d.err != nil {
			return nil
		}
	}
	return evs
}

func (d *decoder) task() *TaskMsg {
	m := &TaskMsg{
		ID:     d.uvarint(),
		Kernel: d.str(),
		Args:   d.bytes(),
		NIn:    d.int(),
	}
	if n := d.count(minRef); n > 0 {
		m.Reads = make([]WireRef, n)
		for i := range m.Reads {
			r := &m.Reads[i]
			r.Datum = d.uvarint()
			r.Ver = d.uvarint()
			r.Size = d.varint()
			switch d.byte() {
			case refCached:
			case refShipped:
				r.Bytes = d.view()
			default:
				d.fail(errMode)
			}
			if d.err != nil {
				return nil
			}
		}
	}
	if n := d.count(minOut); n > 0 {
		m.Writes = make([]WireOut, n)
		for i := range m.Writes {
			m.Writes[i] = WireOut{Datum: d.uvarint(), Ver: d.uvarint(), Size: d.varint(), SeedFrom: d.int()}
		}
	}
	if n := d.count(minKey); n > 0 {
		m.Evict = make([]CacheKey, n)
		for i := range m.Evict {
			m.Evict[i] = CacheKey{Datum: d.uvarint(), Ver: d.uvarint()}
		}
	}
	return m
}

// decodeFrame decodes one frame body (tag byte onwards). Byte-string
// fields of the result are views into b.
func decodeFrame(b []byte) (*Frame, error) {
	d := decoder{b: b}
	f := &Frame{}
	switch d.byte() {
	case tagHello:
		f.Hello = &Hello{Worker: d.int(), PID: d.int(), MAC: d.bytes(), Now: d.varint()}
	case tagChallenge:
		f.Challenge = &Challenge{Nonce: d.bytes()}
	case tagTask:
		f.Task = d.task()
	case tagChain:
		m := &ChainMsg{}
		if n := d.count(minTask); n > 0 {
			m.Tasks = make([]*TaskMsg, n)
			for i := range m.Tasks {
				if m.Tasks[i] = d.task(); d.err != nil {
					break
				}
			}
		}
		f.Chain = m
	case tagDone:
		m := &DoneMsg{ID: d.uvarint(), Err: d.str(), Panic: d.bool()}
		if n := d.count(minBytes); n > 0 {
			m.Outputs = make([][]byte, n)
			for i := range m.Outputs {
				m.Outputs[i] = d.bytes()
			}
		}
		m.Events = d.events()
		m.EventsDropped = d.uvarint()
		f.Done = m
	case tagTrace:
		f.Trace = &TraceMsg{Slot: d.int(), Events: d.events(), Dropped: d.uvarint()}
	case tagShutdown:
		f.Shutdown = true
	default:
		d.fail(errTag)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, errTrailing
	}
	return f, nil
}

// readBody reads an n-byte frame body into one buffer. The buffer starts
// at no more than readChunk and doubles only when it is full, so a length
// claim the stream does not back costs at most twice the bytes that did
// arrive, never the claim.
func readBody(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, readChunk))
	have := 0
	for {
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			return nil, err
		}
		if have = len(buf); have == n {
			return buf, nil
		}
		grown := make([]byte, min(n, 2*have))
		copy(grown, buf)
		buf = grown
	}
}

// ReadFrame decodes the next frame from r. It returns io.EOF untouched on
// a clean end of stream. Hostile input cannot make it panic or allocate
// past what the stream backs: the body is read by readBody, every count
// and length is checked against the bytes that remain before anything is
// sized by it, and malformed input is an error. The byte-string fields of
// the result (Bytes, Args, Outputs, Nonce, MAC) are capacity-clipped views
// into the frame's one buffer — holding any of them keeps that buffer, and
// so the frame's other payloads, alive. This is the function
// FuzzFrameDecode hammers.
func ReadFrame(r io.Reader) (*Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrame {
		return nil, fmt.Errorf("dist: bad frame length %d", n)
	}
	body, err := readBody(r, int(n))
	if err != nil {
		return nil, fmt.Errorf("dist: short frame: %w", err)
	}
	f, err := decodeFrame(body)
	if err != nil {
		return nil, fmt.Errorf("dist: decode frame: %w", err)
	}
	return f, nil
}
