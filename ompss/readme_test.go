package ompss_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// readmeReceivers are the variable names README.md's examples give the
// runtime's types, so that a selector on one (`rt.Master().Go`) is checked
// against the type it stands for rather than against any type at all.
var readmeReceivers = map[string]string{
	"rt":   "Runtime",
	"s":    "Session",
	"sess": "Session",
	"tc":   "TC",
	"h":    "Handle",
	"d":    "Datum",
}

// TestReadmeNamesResolve checks README.md against the code through the
// census's loader. Every backticked Go name outside the fenced blocks — a
// capitalised `Name`, `pkg.Name`, `Type.Method`, or a selector chain on a
// package, a type or one of readmeReceivers, with call arguments and
// composite literals dropped (`ompss.Fixed(64)` is `ompss.Fixed`) — must
// resolve to a declaration in the module or in benchmark/: a package-level
// name, a method or field (followed through call results along a chain), a
// test function, or for `pkg.Name` a name of the standard library package
// pkg. A span whose last name is not exported (a file, a flag, a metric) is
// not a Go name and is skipped. Inside the ```go blocks, whose variables
// the test cannot type, every package-qualified pkg.Name must resolve.
func TestReadmeNamesResolve(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	c := newCensus(t, root)
	r := newReadmeResolver(t, c, root)
	checked := 0
	check := func(line int, text string, ref []string) {
		checked++
		if !r.resolves(ref) {
			t.Errorf("README.md:%d: `%s` resolves to nothing in the module or benchmark/", line, text)
		}
	}
	spans, code := readmeSpans(string(data))
	for _, sp := range spans {
		if ref, ok := goReference(sp.text); ok {
			check(sp.line, sp.text, ref)
		}
	}
	qualified := regexp.MustCompile(`(?:^|[^\w.])([a-z]\w*)\.([A-Z]\w*)`)
	for _, l := range code {
		for _, m := range qualified.FindAllStringSubmatch(l.text, -1) {
			if len(r.pkgs[m[1]]) > 0 { // else a variable
				check(l.line, m[1]+"."+m[2], []string{m[1], m[2]})
			}
		}
	}
	if checked == 0 {
		t.Fatal("no backticked Go name found in README.md")
	}
	t.Logf("%d Go names in README.md checked", checked)
}

type readmeSpan struct {
	line int
	text string
}

// readmeSpans returns the inline code spans of a Markdown text outside its
// fenced blocks (a span may wrap onto the next line), and the lines of its
// ```go blocks.
func readmeSpans(text string) (spans, code []readmeSpan) {
	lines := strings.Split(text, "\n")
	fence := ""
	for i, l := range lines {
		switch trimmed := strings.TrimSpace(l); {
		case strings.HasPrefix(trimmed, "```"):
			if fence == "" {
				fence = trimmed
			} else {
				fence = ""
			}
			lines[i] = ""
		case fence != "":
			if fence == "```go" {
				code = append(code, readmeSpan{i + 1, l})
			}
			lines[i] = ""
		}
	}
	text = strings.Join(lines, "\n")
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatchIndex(text, -1) {
		spans = append(spans, readmeSpan{
			line: 1 + strings.Count(text[:m[0]], "\n"),
			text: strings.Join(strings.Fields(text[m[2]:m[3]]), " "),
		})
	}
	return spans, code
}

var (
	goRefShape = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*$`)
	exportedID = regexp.MustCompile(`^[A-Z]\w*$`)
)

// goReference reduces a code span to the dotted names it refers to: the
// right-hand side of an assignment, without a leading * or <-, without
// bracketed argument lists and literals, and without what follows a call
// (`rt.Err() error` is `rt.Err`). ok is false when what is left is not a
// selector chain ending in an exported name.
func goReference(span string) (names []string, ok bool) {
	if _, rhs, found := strings.Cut(span, ":="); found {
		span = rhs
	}
	span = strings.TrimSpace(span)
	span = strings.TrimPrefix(span, "<-")
	span = strings.TrimPrefix(span, "*")
	var b strings.Builder
	depth, bracketed := 0, false
scan:
	for _, r := range span {
		switch {
		case r == '(' || r == '{' || r == '[':
			depth++
			bracketed = true
		case r == ')' || r == '}' || r == ']':
			depth--
		case depth > 0:
		case r == ' ' && bracketed:
			break scan
		default:
			b.WriteRune(r)
		}
	}
	ref := b.String()
	if depth != 0 || !goRefShape.MatchString(ref) {
		return nil, false
	}
	names = strings.Split(ref, ".")
	return names, exportedID.MatchString(names[len(names)-1])
}

// readmeResolver indexes what a README name may resolve to.
type readmeResolver struct {
	pkgs     map[string][]*types.Package // by package name: the module's, then the standard library's
	typeObjs map[string][]*types.TypeName
	members  map[string]bool // package-level names, methods and fields of the module
	tests    map[string]bool // Test, Benchmark, Example and Fuzz functions of the module
	ompss    *types.Package
}

func newReadmeResolver(t *testing.T, c *census, root string) *readmeResolver {
	r := &readmeResolver{pkgs: map[string][]*types.Package{}, typeObjs: map[string][]*types.TypeName{},
		members: map[string]bool{}, tests: map[string]bool{}}
	var module []*types.Package
	for _, path := range c.callers(root) {
		p := c.load(path)
		module = append(module, p)
		if path == modulePath+"/ompss" {
			r.ompss = p
		}
		if p.Name() != "main" {
			r.pkgs[p.Name()] = append(r.pkgs[p.Name()], p)
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			r.members[name] = true
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			r.typeObjs[name] = append(r.typeObjs[name], tn)
			if n, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < n.NumMethods(); i++ {
					r.members[n.Method(i).Name()] = true
				}
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					r.members[st.Field(i).Name()] = true
				}
			}
		}
	}
	// The standard library packages the module imports, by name.
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if seen[imp] {
				continue
			}
			seen[imp] = true
			if !strings.HasPrefix(imp.Path(), modulePath) {
				r.pkgs[imp.Name()] = append(r.pkgs[imp.Name()], imp)
			}
			walk(imp)
		}
	}
	for _, p := range module {
		walk(p)
	}
	// Test functions are not in the census's packages: parse them.
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				r.tests[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// resolves reports whether a dotted name refers to something.
func (r *readmeResolver) resolves(names []string) bool {
	head, rest := names[0], names[1:]
	if len(rest) == 0 {
		return r.members[head] || r.tests[head]
	}
	if tn := readmeReceivers[head]; tn != "" {
		return chainResolves(r.ompss.Scope().Lookup(tn).Type(), rest)
	}
	for _, p := range r.pkgs[head] {
		if obj := p.Scope().Lookup(rest[0]); obj != nil && obj.Exported() &&
			(len(rest) == 1 || chainResolves(obj.Type(), rest[1:])) {
			return true
		}
	}
	for _, tn := range r.typeObjs[head] {
		if chainResolves(tn.Type(), rest) {
			return true
		}
	}
	// Another variable: its first selector must be some type's method or
	// field.
	return len(r.pkgs[head]) == 0 && len(r.typeObjs[head]) == 0 && r.members[rest[0]]
}

// chainResolves follows names as selectors from a value of type typ: a
// method continues from its first result, a field from its type.
func chainResolves(typ types.Type, names []string) bool {
	for _, name := range names {
		if typ == nil {
			return false
		}
		var pkg *types.Package
		if n, ok := types.Unalias(typ).(*types.Named); ok {
			pkg = n.Obj().Pkg()
		} else if p, ok := typ.(*types.Pointer); ok {
			if n, ok := p.Elem().(*types.Named); ok {
				pkg = n.Obj().Pkg()
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(typ, true, pkg, name)
		switch o := obj.(type) {
		case *types.Func:
			typ = nil
			if res := o.Type().(*types.Signature).Results(); res.Len() > 0 {
				typ = res.At(0).Type()
			}
		case *types.Var:
			typ = o.Type()
		default:
			return false
		}
	}
	return true
}
