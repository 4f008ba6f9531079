package bench

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

// VariantMetrics quantifies one benchmark variant's implementation.
type VariantMetrics struct {
	Lines      int // source lines of the variant's functions
	Constructs int // model-specific constructs (clauses / sync calls)
}

// UsabilityRow is one benchmark's comparison.
type UsabilityRow struct {
	Bench    string
	Seq      VariantMetrics
	Pthreads VariantMetrics
	OmpSs    VariantMetrics
}

// ompssConstructs are the OmpSs-model annotations counted for RunOmpSs.
var ompssConstructs = map[string]bool{
	"In": true, "Out": true, "InOut": true, "Commutative": true,
	"InSized": true, "OutSized": true,
	"Taskwait": true, "TaskwaitOn": true, "TaskwaitCtx": true, "Critical": true,
	"Task": true, "TaskLoop": true, "Go": true,
	"Register": true,
}

// pthreadConstructs are the manual-threading constructs counted for
// RunPthreads.
var pthreadConstructs = map[string]bool{
	"Lock": true, "Unlock": true, "Barrier": true, "Store": true, "Add": true,
	"Load": true, "WaitGE": true, "Parallel": true, "Spawn": true, "Join": true,
}

// MeasureUsability parses the suite sources under dir (the repository's
// internal/suite) and extracts per-variant metrics.
func MeasureUsability(dir string) ([]UsabilityRow, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("usability: %w", err)
	}
	var rows []UsabilityRow
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
	sort.Slice(rows, func(i, j int) bool { return rows[i].Bench < rows[j].Bench })
	return rows, nil
}

func measurePackage(dir string) (*UsabilityRow, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, fmt.Errorf("usability: parse %s: %w", dir, err)
	}
	row := &UsabilityRow{}
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
						row.Bench = lit
					}
				case "RunSeq":
					row.Seq = merge(row.Seq, measureFunc(fset, fn, nil))
					found = true
				case "RunPthreads":
					row.Pthreads = merge(row.Pthreads, measureFunc(fset, fn, pthreadConstructs))
					found = true
				case "RunOmpSs":
					row.OmpSs = merge(row.OmpSs, measureFunc(fset, fn, ompssConstructs))
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

func merge(a, b VariantMetrics) VariantMetrics {
	return VariantMetrics{Lines: a.Lines + b.Lines, Constructs: a.Constructs + b.Constructs}
}

func measureFunc(fset *token.FileSet, fn *ast.FuncDecl, constructs map[string]bool) VariantMetrics {
	start := fset.Position(fn.Body.Lbrace).Line
	end := fset.Position(fn.Body.Rbrace).Line
	m := VariantMetrics{Lines: end - start - 1}
	if m.Lines < 0 {
		m.Lines = 0
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
			m.Constructs++
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

// WriteUsability renders the comparison table.
func WriteUsability(rows []UsabilityRow, w io.Writer) {
	fmt.Fprintf(w, "Parallel-variant implementation effort (suite sources, go/parser)\n")
	fmt.Fprintf(w, "%-14s %10s | %10s %10s | %10s %10s\n",
		"benchmark", "seq-lines", "pth-lines", "pth-sync", "omp-lines", "omp-clauses")
	totS, totPL, totPC, totOL, totOC := 0, 0, 0, 0, 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %10d | %10d %10d | %10d %10d\n",
			r.Bench, r.Seq.Lines, r.Pthreads.Lines, r.Pthreads.Constructs,
			r.OmpSs.Lines, r.OmpSs.Constructs)
		totS += r.Seq.Lines
		totPL += r.Pthreads.Lines
		totPC += r.Pthreads.Constructs
		totOL += r.OmpSs.Lines
		totOC += r.OmpSs.Constructs
	}
	fmt.Fprintf(w, "%-14s %10d | %10d %10d | %10d %10d\n",
		"total", totS, totPL, totPC, totOL, totOC)
}
