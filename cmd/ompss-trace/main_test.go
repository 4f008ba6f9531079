package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ompssgo/internal/obs"
	"ompssgo/ompss"
)

// recordedTrace saves a two-task trace and returns its path.
func recordedTrace(t *testing.T) string {
	t.Helper()
	rec := obs.NewRecorder()
	rt := ompss.New(ompss.Workers(1), ompss.Observe(rec))
	x := new(int)
	rt.Task(func(*ompss.TC) { *x = 1 }, ompss.Out(x), ompss.Label("produce"))
	rt.Task(func(*ompss.TC) { _ = *x }, ompss.In(x), ompss.Label("consume"))
	rt.Shutdown()
	path := filepath.Join(t.TempDir(), "trace.raw.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Snapshot().WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExportValidatesFormatBeforeCreate: a typo'd -format must leave an
// existing output file byte-identical (os.Create truncates).
func TestExportValidatesFormatBeforeCreate(t *testing.T) {
	raw := recordedTrace(t)
	target := filepath.Join(t.TempDir(), "trace.json")
	keep := []byte("an earlier export\n")
	if err := os.WriteFile(target, keep, 0o644); err != nil {
		t.Fatal(err)
	}
	err := export([]string{"-format", "chrom", "-o", target, raw})
	if err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Fatalf("export -format chrom: err = %v, want an unknown-format error", err)
	}
	if got, _ := os.ReadFile(target); !bytes.Equal(got, keep) {
		t.Fatalf("a refused export rewrote its target: %q", got)
	}
}

// TestExportFormats runs every -format value end to end on a real trace.
func TestExportFormats(t *testing.T) {
	raw := recordedTrace(t)
	for format, want := range map[string]string{
		"chrome":  `"traceEvents"`,
		"paraver": "record,worker,task,label",
		"dot":     `label="consume"`,
	} {
		target := filepath.Join(t.TempDir(), "out."+format)
		if err := export([]string{"-format", format, "-o", target, raw}); err != nil {
			t.Fatalf("export -format %s: %v", format, err)
		}
		got, err := os.ReadFile(target)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(got, []byte(want)) {
			t.Errorf("export -format %s lacks %s:\n%.300s", format, want, got)
		}
	}
}
