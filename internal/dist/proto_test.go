package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ompssgo/internal/obs"
)

// big is a payload above inlineMax, so frames carrying it take the
// gathered-write path.
var big = bytes.Repeat([]byte{0xab}, 3*inlineMax)

// validFrames is one frame (at least) per tag with every field set to
// something a lossy codec would get wrong: the extremes of each integer,
// negative signed fields, all three ref modes, payloads on both sides of
// inlineMax, labelled events. Slices are in decoded form (empty is nil,
// except a shipped ref's Bytes), so a round trip must be DeepEqual.
func validFrames() []*Frame {
	evs := []obs.Event{
		{Seq: 1, At: -5, Task: 7, Arg: math.MaxUint64, Sess: 3, Worker: -1, Kind: obs.EvSubmit, Label: "rotate"},
		{Seq: math.MaxUint64, At: math.MaxInt64, Worker: math.MinInt32, Kind: obs.EvXferHit},
	}
	return []*Frame{
		{Hello: &Hello{Worker: 3, PID: 4242, MAC: []byte{0xa, 0xb}, FetchAddr: "unix:/tmp/w3.sock", Now: -17}},
		{Hello: &Hello{Worker: math.MinInt64, PID: math.MaxInt64, Now: math.MaxInt64}},
		{Challenge: &Challenge{Nonce: []byte{1, 2, 3, 4}}},
		{Task: &TaskMsg{
			ID:     7,
			Kernel: "rotate",
			Args:   []byte{1, 2, 3},
			NIn:    1,
			Reads: []WireRef{
				{Datum: 1, Ver: 2, Size: 3, Bytes: []byte{9, 8, 7}},
				{Datum: 4, Ver: 1, Size: 2},
				{Datum: 5, Ver: 9, Size: 64, From: "tcp:127.0.0.1:4000"},
				{Datum: 6, Ver: 1, Size: 0, Bytes: []byte{}},
				{Datum: math.MaxUint64, Ver: math.MaxUint64, Size: int64(len(big)), Bytes: big},
			},
			Writes: []WireOut{{Datum: 4, Ver: 5, Size: 2, SeedFrom: 1}, {Datum: 8, Ver: 1, Size: math.MaxInt64, SeedFrom: -1}},
			Evict:  []CacheKey{{Datum: 9, Ver: 9}},
		}},
		{Task: &TaskMsg{Kernel: "bare"}},
		{Chain: &ChainMsg{Tasks: []*TaskMsg{
			{ID: 10, Kernel: "a", Args: big, Evict: []CacheKey{{Datum: 1, Ver: 1}}},
			{ID: 11, Kernel: "b", NIn: -1, Reads: []WireRef{{Datum: 2, Ver: 3, Size: 1}}},
		}}},
		{Chain: &ChainMsg{}},
		{Fetch: &FetchMsg{Datum: 5, Ver: 6}},
		{Data: &DataMsg{Datum: 5, Ver: 6, Found: true, Bytes: []byte{1}}},
		{Data: &DataMsg{Datum: 5, Ver: 7}},
		{Done: &DoneMsg{ID: 7, Outputs: [][]byte{{5, 5}, nil, big}, Fetches: 1, FetchedBytes: 2, FetchFallbacks: 1,
			Events: evs, EventsDropped: 12}},
		{Done: &DoneMsg{ID: 8, Err: "kernel exploded", Panic: true, Fetches: -1, FetchedBytes: math.MinInt64}},
		{Trace: &TraceMsg{Slot: 2, Events: evs, Dropped: 99}},
		{Trace: &TraceMsg{Slot: -1}},
		{Shutdown: true},
	}
}

func encode(t testing.TB, f *Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatalf("write %+v: %v", f, err)
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	frames := validFrames()
	var buf bytes.Buffer
	for _, f := range frames {
		buf.Write(encode(t, f))
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("want EOF after last frame, got %v", err)
	}
}

// TestFrameEmptyVersusAbsent pins the one place the wire tells an empty
// slice from an absent one: a ref's mode. A shipped zero-length ref comes
// back non-nil, a cached ref nil; every other empty slice decodes as nil.
func TestFrameEmptyVersusAbsent(t *testing.T) {
	in := &Frame{Task: &TaskMsg{
		Args:   []byte{},
		Reads:  []WireRef{{Datum: 1, Ver: 1, Bytes: []byte{}}, {Datum: 2, Ver: 1}},
		Writes: []WireOut{},
		Evict:  []CacheKey{},
	}}
	got, err := ReadFrame(bytes.NewReader(encode(t, in)))
	if err != nil {
		t.Fatal(err)
	}
	m := got.Task
	if b := m.Reads[0].Bytes; b == nil || len(b) != 0 {
		t.Fatalf("shipped empty ref decoded as %#v, want empty and non-nil", b)
	}
	if m.Reads[1].Bytes != nil {
		t.Fatalf("cached ref decoded with bytes %#v", m.Reads[1].Bytes)
	}
	if m.Args != nil || m.Writes != nil || m.Evict != nil {
		t.Fatalf("empty slices must decode as nil: %+v", m)
	}
	done, err := ReadFrame(bytes.NewReader(encode(t, &Frame{Done: &DoneMsg{Outputs: [][]byte{{}}, Events: []obs.Event{}}})))
	if err != nil {
		t.Fatal(err)
	}
	if o := done.Done.Outputs; len(o) != 1 || o[0] != nil || done.Done.Events != nil {
		t.Fatalf("done with one empty output decoded as %+v", done.Done)
	}
}

// TestFramePrefixesError: no field is optional and every field delimits
// itself, so no strict prefix of a valid frame is a frame — neither the
// stream cut short nor a body cut short under a length that matches.
func TestFramePrefixesError(t *testing.T) {
	for i, f := range validFrames() {
		enc := encode(t, f)
		for n := 0; n < len(enc); n++ {
			if _, err := ReadFrame(bytes.NewReader(enc[:n])); err == nil {
				t.Fatalf("frame %d: %d-byte prefix of the %d-byte stream accepted", i, n, len(enc))
			}
		}
		body := enc[4:]
		for n := 0; n < len(body); n++ {
			if _, err := decodeFrame(body[:n]); err == nil {
				t.Fatalf("frame %d: %d-byte prefix of the %d-byte body accepted", i, n, len(body))
			}
		}
		if _, err := decodeFrame(append(body[:len(body):len(body)], 0)); !errors.Is(err, errTrailing) {
			t.Fatalf("frame %d: trailing byte: %v", i, err)
		}
	}
}

// TestFrameHugeClaims puts a count or a length of 2^60 at every place the
// format has one. Each must be refused on the bytes that remain, before
// anything is sized by it: the decode allocates the Frame, the message
// struct and, in the two ref cases, the genuine one-element Reads slice in
// front of the claim — nothing else.
func TestFrameHugeClaims(t *testing.T) {
	const huge = 1 << 60
	body := func(build func(e *encoder)) []byte {
		var e encoder
		build(&e)
		return append(e.buf, 1, 2, 3) // a few real bytes behind the claim
	}
	taskHead := func(e *encoder) { e.uvarint(1); e.str("k"); e.bytes(nil); e.varint(0) }
	doneHead := func(e *encoder) { e.uvarint(1); e.str(""); e.bool(false) }
	cases := map[string][]byte{
		"hello mac":  body(func(e *encoder) { e.byte(tagHello); e.varint(0); e.varint(0); e.uvarint(huge) }),
		"hello addr": body(func(e *encoder) { e.byte(tagHello); e.varint(0); e.varint(0); e.bytes(nil); e.uvarint(huge) }),
		"nonce":      body(func(e *encoder) { e.byte(tagChallenge); e.uvarint(huge) }),
		"kernel":     body(func(e *encoder) { e.byte(tagTask); e.uvarint(1); e.uvarint(huge) }),
		"args":       body(func(e *encoder) { e.byte(tagTask); e.uvarint(1); e.str("k"); e.uvarint(huge) }),
		"reads":      body(func(e *encoder) { e.byte(tagTask); taskHead(e); e.uvarint(huge) }),
		"ref bytes": body(func(e *encoder) {
			e.byte(tagTask)
			taskHead(e)
			e.uvarint(1) // one ref: datum, ver, size, shipped, then the claim
			e.uvarint(1)
			e.uvarint(1)
			e.varint(0)
			e.byte(refShipped)
			e.uvarint(huge)
		}),
		"ref from": body(func(e *encoder) {
			e.byte(tagTask)
			taskHead(e)
			e.uvarint(1)
			e.uvarint(1)
			e.uvarint(1)
			e.varint(0)
			e.byte(refForward)
			e.uvarint(huge)
		}),
		"writes":   body(func(e *encoder) { e.byte(tagTask); taskHead(e); e.uvarint(0); e.uvarint(huge) }),
		"evict":    body(func(e *encoder) { e.byte(tagTask); taskHead(e); e.uvarint(0); e.uvarint(0); e.uvarint(huge) }),
		"chain":    body(func(e *encoder) { e.byte(tagChain); e.uvarint(huge) }),
		"data":     body(func(e *encoder) { e.byte(tagData); e.uvarint(1); e.uvarint(1); e.bool(true); e.uvarint(huge) }),
		"done err": body(func(e *encoder) { e.byte(tagDone); e.uvarint(1); e.uvarint(huge) }),
		"outputs":  body(func(e *encoder) { e.byte(tagDone); doneHead(e); e.uvarint(huge) }),
		"done events": body(func(e *encoder) {
			e.byte(tagDone)
			doneHead(e)
			e.uvarint(0)
			e.varint(0)
			e.varint(0)
			e.varint(0)
			e.uvarint(huge)
		}),
		"trace events":   body(func(e *encoder) { e.byte(tagTrace); e.varint(0); e.uvarint(huge) }),
		"count just off": body(func(e *encoder) { e.byte(tagTask); taskHead(e); e.uvarint(1) }), // 3 bytes cannot hold a 4-byte ref
	}
	for name, b := range cases {
		if _, err := decodeFrame(b); !errors.Is(err, errShort) && !errors.Is(err, errCount) {
			t.Errorf("%s: claim of 2^60 not refused as short or over-count: %v", name, err)
			continue
		}
		if n := testing.AllocsPerRun(100, func() { decodeFrame(b) }); n > 3 {
			t.Errorf("%s: refusing the claim took %.0f allocations", name, n)
		}
	}
}

func TestFrameRefusals(t *testing.T) {
	overInt32 := binary.AppendVarint(nil, math.MaxInt32+1)
	for name, c := range map[string]struct {
		body []byte
		want error
	}{
		"tag 0":        {[]byte{0}, errTag},
		"tag past end": {[]byte{tagShutdown + 1}, errTag},
		// id 1, kernel "k", no args, nin 0, one ref (1, 1, size 0) of mode 3
		"ref mode 3": {[]byte{tagTask, 1, 1, 'k', 0, 0, 1, 1, 1, 0, 3, 0, 0}, errMode},
		"bool 2":     {[]byte{tagData, 1, 1, 2, 0}, errBool},
		// slot 0, one event whose worker lane does not fit an int32
		"event lane": {append(append([]byte{tagTrace, 0, 1, 1, 0, 1, 1, 1}, overInt32...), 0, 0, 0), errRange},
	} {
		if _, err := decodeFrame(c.body); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", name, err, c.want)
		}
	}
	for name, f := range map[string]*Frame{
		"no field set":   {},
		"nil chain link": {Chain: &ChainMsg{Tasks: []*TaskMsg{{Kernel: "a"}, nil}}},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err == nil || buf.Len() != 0 {
			t.Errorf("%s: WriteFrame err %v after writing %d bytes; want an error and nothing written", name, err, buf.Len())
		}
	}
}

// segWriter records the segments a frame is written in.
type segWriter struct{ segs [][]byte }

func (w *segWriter) Write(p []byte) (int, error) {
	w.segs = append(w.segs, p)
	return len(p), nil
}

// TestWriteFrameDoesNotCopyPayloads: a payload above inlineMax reaches the
// writer as the caller's own slice, and a frame around a 1 MiB payload
// costs a header's worth of allocation, not a payload's.
func TestWriteFrameDoesNotCopyPayloads(t *testing.T) {
	payload := make([]byte, 1<<20)
	small := []byte{1, 2, 3}
	f := &Frame{Done: &DoneMsg{ID: 1, Outputs: [][]byte{small, payload, payload[:inlineMax+1]}}}
	var w segWriter
	if err := WriteFrame(&w, f); err != nil {
		t.Fatal(err)
	}
	aliased := 0
	for _, s := range w.segs {
		if len(s) > 0 && (&s[0] == &payload[0]) {
			aliased++
		}
		if len(s) > 0 && &s[0] == &small[0] {
			t.Fatal("a payload below inlineMax went out as its own segment")
		}
	}
	if aliased != 2 {
		t.Fatalf("%d of %d segments alias the payload, want 2", aliased, len(w.segs))
	}
	got, err := ReadFrame(bytes.NewReader(bytes.Join(w.segs, nil)))
	if err != nil || !reflect.DeepEqual(got, f) {
		t.Fatalf("gathered frame does not decode to its source: %v", err)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := WriteFrame(io.Discard, f); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 4<<10 {
		t.Fatalf("WriteFrame of a 1 MiB payload allocates %d B a frame, want < 4 KiB", per)
	}
}

// TestDecodedViewsAreClipped: byte-string fields are views into the
// frame's buffer with cap == len, so a kernel that appends to one gets a
// copy instead of writing over the next field.
func TestDecodedViewsAreClipped(t *testing.T) {
	f := &Frame{Task: &TaskMsg{Kernel: "k", Args: []byte{1, 2}, Reads: []WireRef{
		{Datum: 1, Ver: 1, Size: 3, Bytes: []byte{3, 4, 5}},
		{Datum: 2, Ver: 1, Size: int64(len(big)), Bytes: big},
		{Datum: 3, Ver: 1, Size: 2, Bytes: []byte{6, 7}},
	}}}
	got, err := ReadFrame(bytes.NewReader(encode(t, f)))
	if err != nil {
		t.Fatal(err)
	}
	views := [][]byte{got.Task.Args}
	for _, r := range got.Task.Reads {
		views = append(views, r.Bytes)
	}
	for i, v := range views {
		if cap(v) != len(v) {
			t.Fatalf("view %d: len %d cap %d", i, len(v), cap(v))
		}
		_ = append(v, 0xff)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("an append through one view changed the frame: %+v", got.Task)
	}
	done, err := ReadFrame(bytes.NewReader(encode(t, &Frame{Done: &DoneMsg{Outputs: [][]byte{{1}, {2}}}})))
	if err != nil {
		t.Fatal(err)
	}
	if o := done.Done.Outputs; cap(o[0]) != 1 || cap(o[1]) != 1 {
		t.Fatalf("output views not clipped: caps %d, %d", cap(o[0]), cap(o[1]))
	}
}

func TestReadFrameRejectsBadLengths(t *testing.T) {
	// Zero length.
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	// Oversized claimed length.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); err == nil ||
		!strings.Contains(err.Error(), "bad frame length") {
		t.Fatalf("oversized frame not rejected: %v", err)
	}
	// Large claimed length with a short stream must fail cheaply, not
	// allocate the claim.
	binary.BigEndian.PutUint32(hdr[:], MaxFrame)
	if _, err := ReadFrame(bytes.NewReader(append(hdr[:], 1, 2, 3))); err == nil ||
		!strings.Contains(err.Error(), "short frame") {
		t.Fatalf("short frame not detected: %v", err)
	}
	// Garbage payload of the declared length: decode error, not panic.
	junk := append([]byte{0, 0, 0, 4}, 0xde, 0xad, 0xbe, 0xef)
	if _, err := ReadFrame(bytes.NewReader(junk)); err == nil {
		t.Fatal("garbage frame accepted")
	}
}

// FuzzFrameDecode throws arbitrary byte streams at the frame decoder: it
// must return errors, never panic, and whatever it accepts must survive the
// codec unchanged — decode(encode(decode(x))) equals decode(x), so nothing
// the decoder can produce is unencodable or re-encodes to something else.
func FuzzFrameDecode(f *testing.F) {
	var all []byte
	for _, fr := range validFrames() {
		enc := encode(f, fr)
		f.Add(enc) // at least one seed per tag
		all = append(all, enc...)
	}
	f.Add(all)
	f.Add([]byte{0, 0, 0, 1, 0xff})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			fr, err := ReadFrame(r)
			if err != nil {
				return
			}
			var buf bytes.Buffer
			if err := WriteFrame(&buf, fr); err != nil {
				t.Fatalf("decoded frame does not re-encode: %v", err)
			}
			again, err := ReadFrame(&buf)
			if err != nil {
				t.Fatalf("re-encoded frame does not decode: %v", err)
			}
			if !reflect.DeepEqual(again, fr) {
				t.Fatalf("frame changed across the codec:\n got %+v\nwant %+v", again, fr)
			}
		}
	})
}
