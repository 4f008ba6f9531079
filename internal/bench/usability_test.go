package bench

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// TestOmpssConstructsExist keeps the construct list from rotting: a name
// that package ompss no longer exports as a function or method would just
// stop counting, silently shrinking the OmpSs column of the usability table.
func TestOmpssConstructsExist(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), "../../ompss", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.IsExported() {
					exported[fn.Name.Name] = true
				}
			}
		}
	}
	for name := range ompssConstructs {
		if !exported[name] {
			t.Errorf("ompssConstructs counts %q, which package ompss does not export as a function or method", name)
		}
	}
}

func TestMeasureUsability(t *testing.T) {
	rows, err := MeasureUsability("../suite")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("benchmarks measured = %d, want 10", len(rows))
	}
	byName := map[string]UsabilityRow{}
	for _, r := range rows {
		byName[r.Bench] = r
		if r.Bench == "" {
			t.Fatal("missing benchmark name")
		}
		if r.Seq.Lines <= 0 || r.Pthreads.Lines <= 0 || r.OmpSs.Lines <= 0 {
			t.Fatalf("%s: empty variant metrics: %+v", r.Bench, r)
		}
		if r.OmpSs.Constructs == 0 {
			t.Fatalf("%s: OmpSs variant uses no clauses?", r.Bench)
		}
		if r.Pthreads.Constructs == 0 {
			t.Fatalf("%s: Pthreads variant uses no sync?", r.Bench)
		}
	}
	// Both parallel variants must exceed the sequential baseline — the
	// paper's point is about *which* parallel expression is cheaper.
	for name, r := range byName {
		if r.Pthreads.Lines < r.Seq.Lines {
			t.Errorf("%s: pthreads smaller than sequential?", name)
		}
	}
	// The qualitative claim of §3: the dataflow expression of the complex
	// pipelined/irregular benchmarks is substantially leaner than the
	// manual one.
	if sc := byName["streamcluster"]; sc.OmpSs.Lines >= sc.Pthreads.Lines {
		t.Errorf("streamcluster: OmpSs (%d lines) should be leaner than Pthreads (%d)",
			sc.OmpSs.Lines, sc.Pthreads.Lines)
	}
	var buf bytes.Buffer
	WriteUsability(rows, &buf)
	if !strings.Contains(buf.String(), "total") {
		t.Fatal("rendered table missing total row")
	}
}
