package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestTraceJSONRoundTrip pins the raw-trace file format: every event field
// survives a write/read cycle.
func TestTraceJSONRoundTrip(t *testing.T) {
	in := diamondTrace()
	in.Virtual = true
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Backend != in.Backend || out.Workers != in.Workers ||
		out.Virtual != in.Virtual || out.Capacity != in.Capacity {
		t.Fatalf("meta mismatch: %+v vs %+v", out, in)
	}
	if !reflect.DeepEqual(out.Dropped, in.Dropped) {
		t.Fatalf("dropped mismatch: %v vs %v", out.Dropped, in.Dropped)
	}
	if !reflect.DeepEqual(out.Events, in.Events) {
		t.Fatalf("events do not round-trip:\n got %+v\nwant %+v", out.Events[:3], in.Events[:3])
	}
}

// TestReadTraceRejectsUnknownSchema guards against silently analyzing a
// foreign JSON file.
func TestReadTraceRejectsUnknownSchema(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader(`{"schema":"nope","events":[]}`)); err == nil {
		t.Fatal("unknown schema accepted")
	}
	if _, err := ReadTrace(strings.NewReader(`{"schema":"` + TraceSchema + `","events":[{"s":1,"k":"bogus"}]}`)); err == nil {
		t.Fatal("unknown event kind accepted")
	}
}

// TestChromeTraceStructure validates the exported document structurally,
// the way chrome://tracing / Perfetto parse it: a traceEvents array whose
// entries all carry ph/pid/ts, complete ("X") slices with name, tid, and a
// duration, thread-name metadata for every lane, matched flow pairs
// ("s"/"f" sharing an id, the finish bound with bp:"e"), and a counter
// track.
func TestChromeTraceStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, diamondTrace()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no traceEvents")
	}
	var slices, threadNames, counters int
	flows := map[string][2]int{} // id -> {starts, finishes}
	for i, ev := range doc.TraceEvents {
		ph, ok := ev["ph"].(string)
		if !ok || ph == "" {
			t.Fatalf("event %d has no ph: %v", i, ev)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event %d has no pid: %v", i, ev)
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Fatalf("event %d has no ts: %v", i, ev)
		}
		switch ph {
		case "X":
			slices++
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("X event %d has no dur: %v", i, ev)
			}
			if name, _ := ev["name"].(string); name == "" {
				t.Fatalf("X event %d has no name: %v", i, ev)
			}
			if _, ok := ev["tid"].(float64); !ok {
				t.Fatalf("X event %d has no tid: %v", i, ev)
			}
		case "M":
			if ev["name"] == "thread_name" {
				threadNames++
			}
		case "C":
			counters++
		case "s", "f":
			id, _ := ev["id"].(string)
			if id == "" {
				t.Fatalf("flow event %d has no id: %v", i, ev)
			}
			c := flows[id]
			if ph == "s" {
				c[0]++
			} else {
				c[1]++
				if bp, _ := ev["bp"].(string); bp != "e" {
					t.Fatalf("flow finish %d lacks bp:e: %v", i, ev)
				}
			}
			flows[id] = c
		}
	}
	if slices != 4 {
		t.Fatalf("%d X slices, want 4 (one per executed task)", slices)
	}
	if threadNames != 3 { // 2 lanes + runtime track
		t.Fatalf("%d thread_name records, want 3", threadNames)
	}
	if counters == 0 {
		t.Fatal("no parallelism counter events")
	}
	if len(flows) != 4 {
		t.Fatalf("%d flow ids, want 4 (one per dependence edge)", len(flows))
	}
	for id, c := range flows {
		if c != [2]int{1, 1} {
			t.Fatalf("flow %s has %d starts / %d finishes, want 1/1", id, c[0], c[1])
		}
	}
}

// TestParaverCSVStructure checks the CSV timeline: header, one running row
// per executed task, and well-formed rows throughout.
func TestParaverCSVStructure(t *testing.T) {
	tr := diamondTrace()
	tr.Events = append(tr.Events,
		Event{Seq: 100, At: 12, Kind: EvSteal, Worker: 1, Arg: 0, Task: 3},
		Event{Seq: 101, At: 20, Kind: EvIdleEnter, Worker: 1},
		Event{Seq: 102, At: 35, Kind: EvIdleExit, Worker: 1},
	)
	var buf bytes.Buffer
	if err := WriteParaverCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "record,worker,task,label,start_us,end_us" {
		t.Fatalf("bad header %q", lines[0])
	}
	var running, steals, idles int
	for _, ln := range lines[1:] {
		fields := strings.Split(ln, ",")
		if len(fields) != 6 {
			t.Fatalf("row %q has %d fields, want 6", ln, len(fields))
		}
		switch fields[0] {
		case "running":
			running++
		case "steal":
			steals++
		case "idle":
			idles++
		}
	}
	if running != 4 || steals != 1 || idles != 1 {
		t.Fatalf("rows: running=%d steal=%d idle=%d, want 4/1/1", running, steals, idles)
	}
}

// TestWriteDOTGolden pins the Graphviz export byte for byte on the diamond:
// four nodes in task-ID order, each with its executing lane, then four
// edges; a label with a quote and a backslash stays one valid DOT string;
// a task whose submit event was lost is left out together with its edges.
func TestWriteDOTGolden(t *testing.T) {
	tr := diamondTrace()
	tr.Events[0].Label = `to"p\`
	tr.Events = append(tr.Events, Event{Seq: 99, At: 35, Kind: EvEdge, Task: 7, Arg: 4})
	var buf bytes.Buffer
	if err := WriteDOT(&buf, tr); err != nil {
		t.Fatal(err)
	}
	const want = `digraph taskgraph {
  rankdir=TB; node [shape=box, fontsize=10];
  t1 [label="to\"p\\", tooltip="lane 0"];
  t2 [label="left", tooltip="lane 0"];
  t3 [label="right", tooltip="lane 1"];
  t4 [label="bottom", tooltip="lane 0"];
  t1 -> t2;
  t1 -> t3;
  t2 -> t4;
  t3 -> t4;
}
`
	if got := buf.String(); got != want {
		t.Fatalf("DOT export:\n%s\nwant:\n%s", got, want)
	}
}
