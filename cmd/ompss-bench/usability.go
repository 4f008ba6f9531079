package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The paper's §2 argues a programming model must be judged on usability as
// well as performance, and §3 studies expressiveness qualitatively. This
// file adds the quantitative side the paper alludes to: per benchmark, the
// size of each variant's parallel code and the number of model-specific
// constructs it needs (dependence clauses for OmpSs; explicit
// synchronization calls for Pthreads).

// variantMetrics quantifies one benchmark variant's implementation.
type variantMetrics struct {
	lines      int // source lines of the variant's functions
	constructs int // model-specific constructs (clauses / sync calls)
}

// usabilityRow is one benchmark's comparison.
type usabilityRow struct {
	bench    string
	seq      variantMetrics
	pthreads variantMetrics
	ompss    variantMetrics
}

// ompssConstructs are the OmpSs-model annotations counted for RunOmpSs.
var ompssConstructs = map[string]bool{
	"In": true, "Out": true, "InOut": true, "Commutative": true,
	"InSized": true, "OutSized": true,
	"Taskwait": true, "TaskwaitOn": true, "TaskwaitCtx": true, "Critical": true,
	"Task": true, "Go": true,
	"Register": true,
}

// pthreadConstructs are the manual-threading constructs counted for
// RunPthreads.
var pthreadConstructs = map[string]bool{
	"Lock": true, "Unlock": true, "Barrier": true, "Store": true, "Add": true,
	"Load": true, "WaitGE": true, "Parallel": true, "Spawn": true, "Join": true,
}

// measureUsability parses the suite sources under dir (the repository's
// internal/suite) and extracts per-variant metrics.
func measureUsability(dir string) ([]usabilityRow, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("usability: %w", err)
	}
	var rows []usabilityRow
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		row, err := measurePackage(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		if row != nil {
			rows = append(rows, *row)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].bench < rows[j].bench })
	return rows, nil
}

func measurePackage(dir string) (*usabilityRow, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, fmt.Errorf("usability: parse %s: %w", dir, err)
	}
	row := &usabilityRow{}
	found := false
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				switch fn.Name.Name {
				case "Name":
					if lit := returnString(fn); lit != "" {
						row.bench = lit
					}
				case "RunSeq":
					row.seq = merge(row.seq, measureFunc(fset, fn, nil))
					found = true
				case "RunPthreads":
					row.pthreads = merge(row.pthreads, measureFunc(fset, fn, pthreadConstructs))
					found = true
				case "RunOmpSs":
					row.ompss = merge(row.ompss, measureFunc(fset, fn, ompssConstructs))
					found = true
				}
			}
		}
	}
	if !found {
		return nil, nil
	}
	return row, nil
}

func merge(a, b variantMetrics) variantMetrics {
	return variantMetrics{lines: a.lines + b.lines, constructs: a.constructs + b.constructs}
}

func measureFunc(fset *token.FileSet, fn *ast.FuncDecl, constructs map[string]bool) variantMetrics {
	start := fset.Position(fn.Body.Lbrace).Line
	end := fset.Position(fn.Body.Rbrace).Line
	m := variantMetrics{lines: end - start - 1}
	if m.lines < 0 {
		m.lines = 0
	}
	if constructs == nil {
		return m
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && constructs[sel.Sel.Name] {
			m.constructs++
		}
		return true
	})
	return m
}

func returnString(fn *ast.FuncDecl) string {
	for _, stmt := range fn.Body.List {
		if ret, ok := stmt.(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
			if lit, ok := ret.Results[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				return strings.Trim(lit.Value, `"`)
			}
		}
	}
	return ""
}

// writeUsability renders the comparison table.
func writeUsability(rows []usabilityRow, w io.Writer) {
	fmt.Fprintf(w, "Parallel-variant implementation effort (suite sources, go/parser)\n")
	fmt.Fprintf(w, "%-14s %10s | %10s %10s | %10s %10s\n",
		"benchmark", "seq-lines", "pth-lines", "pth-sync", "omp-lines", "omp-clauses")
	totS, totPL, totPC, totOL, totOC := 0, 0, 0, 0, 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %10d | %10d %10d | %10d %10d\n",
			r.bench, r.seq.lines, r.pthreads.lines, r.pthreads.constructs,
			r.ompss.lines, r.ompss.constructs)
		totS += r.seq.lines
		totPL += r.pthreads.lines
		totPC += r.pthreads.constructs
		totOL += r.ompss.lines
		totOC += r.ompss.constructs
	}
	fmt.Fprintf(w, "%-14s %10d | %10d %10d | %10d %10d\n",
		"total", totS, totPL, totPC, totOL, totOC)
}
