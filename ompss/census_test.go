package ompss_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// censusAllow lists the exported names that stay without a non-test caller
// outside this package, each with the contract it serves. The census fails
// on any other uncalled name, on an entry that has gained a caller, and on
// a list longer than censusAllowMax.
var censusAllow = map[string]string{
	"Priority":         "benchmark/ reads RunStats.Sched.PrioPops; the clause is the only way onto the priority lanes (TestTenantPriority, schedfuzz)",
	"OnError":          "selects the failure-propagation policy the handle tests pin (TestRunThroughPolicy, TestSessionOnErrorOverride)",
	"Fixed":            "only constructor for the numeric Tuning fields (Grain, StealBackoff)",
	"Seed":             "fixes the steal-victim RNG; the schedule fuzzers sweep it so a failing schedule can be replayed",
	"Session.Cancel":   "failure-confinement contract: cancels one session and no other (TestSessionCancelIsolation)",
	"Runtime.Err":      "first runtime-level failure, and what disarms the Shutdown panic valve (TestUnobservedPanicResurfacesAtShutdown, TestRunThroughPolicy)",
	"Handle.Done":      "the future's completion channel: per-task select/timeout (TestHandleDoneRace, TestHandleOutlivesSession)",
	"ErrSessionClosed": "errors.Is target of spawns refused or skipped by Session.Close (TestSessionCloseSkipsPending)",
	"SkipError":        "errors.As target carrying the label and cause of a skipped task; ErrSkipped, which has callers, only matches it",
	"TaskPanic":        "errors.As target a panicking body is wrapped into (TestTaskPanicBecomesHandleError, TestCommutativePanicReleasesLocks)",
}

const censusAllowMax = 11

// censusScopes are the three receivers of the spawning surface: the master
// thread of a runtime, of a session, and the inside of a task body. Runtime
// and Session hand-forward to TC, so a method of that name is one capability
// wherever it is called.
var censusScopes = []string{"Runtime", "Session", "TC"}

// censusProtocols are methods the standard library calls through an
// interface (error, errors.Is/As), never by name.
var censusProtocols = map[string]bool{"Error": true, "Unwrap": true, "Is": true}

const modulePath = "ompssgo"

// censusEntry is one exported package-level name or method of package ompss.
type censusEntry struct {
	obj   types.Object
	sites int             // uses in non-test files outside package ompss
	pkgs  map[string]bool // where
	via   string          // the rule that keeps a name with no call site of its own
}

// TestAPICensus type-checks every non-test package of the module and of the
// nested benchmark module and requires each exported identifier and method
// of package ompss to be in use among them, or to carry a reasoned
// allowlist entry. In use means: named or called outside package ompss
// (calls through API credit every type that implements it); or the same
// method called on another spawning scope; or a type in the signature of a
// live function, a field type of a live struct, a constant of a live type,
// or an error-protocol method of a live type. Each exported field of Tuning
// is a knob and counts as a name of its own: it is in use only where a
// Tuning literal outside package ompss sets it. Run with -v for the table
// DESIGN.md publishes.
func TestAPICensus(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	c := newCensus(t, root)
	api := c.load(modulePath + "/ompss")
	scope := api.Scope()

	surface := map[string]*censusEntry{}
	var ifaces []*types.Named
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		surface[name] = &censusEntry{obj: obj}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		if types.IsInterface(named) {
			ifaces = append(ifaces, named) // its methods are credited to the implementers
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				surface[name+"."+m.Name()] = &censusEntry{obj: m}
			}
		}
	}
	// A Tuning field is credited where a composite-literal key names it (the
	// key arrives in Info.Uses as the field's *types.Var).
	knobs := map[*types.Var]string{}
	if tn, ok := scope.Lookup("Tuning").(*types.TypeName); ok {
		st := tn.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				knobs[f] = "Tuning." + f.Name()
				surface[knobs[f]] = &censusEntry{obj: f}
			}
		}
	}
	ownName := func(typ types.Type) string {
		if p, ok := typ.(*types.Pointer); ok {
			typ = p.Elem()
		}
		if n, ok := typ.(*types.Named); ok && n.Obj().Pkg() == api {
			return n.Obj().Name()
		}
		return ""
	}

	// Direct uses.
	for _, path := range c.callers(root) {
		if path == api.Path() {
			continue
		}
		c.load(path)
		short := strings.TrimPrefix(path, modulePath+"/")
		credit := func(key string) {
			if e := surface[key]; e != nil {
				if e.pkgs == nil {
					e.pkgs = map[string]bool{}
				}
				e.sites++
				e.pkgs[short] = true
			}
		}
		for _, obj := range c.infos[path].Uses {
			if obj.Pkg() != api || !obj.Exported() {
				continue
			}
			fn, isFunc := obj.(*types.Func)
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				credit(knobs[v]) // other fields: credited to the struct through Selections below
				continue
			}
			if !isFunc || fn.Type().(*types.Signature).Recv() == nil {
				credit(obj.Name())
				continue
			}
			recv := fn.Type().(*types.Signature).Recv().Type()
			if !types.IsInterface(recv) {
				credit(ownName(recv))
				credit(ownName(recv) + "." + fn.Name())
				continue
			}
			// A call through an interface reaches every ompss type that
			// implements it.
			for _, in := range ifaces {
				it := in.Underlying().(*types.Interface)
				if obj, _, _ := types.LookupFieldOrMethod(in, false, api, fn.Name()); obj != fn {
					continue
				}
				credit(in.Obj().Name())
				for _, name := range scope.Names() {
					if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !types.IsInterface(tn.Type()) &&
						types.Implements(types.NewPointer(tn.Type()), it) {
						credit(name + "." + fn.Name())
					}
				}
			}
		}
		for _, sel := range c.infos[path].Selections {
			if sel.Kind() == types.FieldVal {
				credit(ownName(sel.Recv()))
			}
		}
	}

	var names []string
	for k := range surface {
		names = append(names, k)
	}
	sort.Strings(names)

	// One capability across the spawning scopes.
	for _, key := range names {
		e := surface[key]
		recv, method, ok := strings.Cut(key, ".")
		if !ok || e.sites > 0 || !slices.Contains(censusScopes, recv) {
			continue
		}
		for _, other := range censusScopes {
			if o := surface[other+"."+method]; o != nil && o.sites > 0 {
				e.via = "same capability as " + other + "." + method
				break
			}
		}
	}

	// Liveness closure over signatures, fields, constants and protocols.
	live := func(key string) bool {
		e := surface[key]
		_, allowed := censusAllow[key]
		return e != nil && (e.sites > 0 || e.via != "" || allowed)
	}
	for changed := true; changed; {
		changed = false
		mark := func(key, via string) {
			if e := surface[key]; e != nil && !live(key) {
				e.via, changed = via, true
			}
		}
		for _, key := range names {
			e := surface[key]
			recv, method, isMethod := strings.Cut(key, ".")
			if !live(key) {
				if isMethod && censusProtocols[method] && live(recv) {
					mark(key, "error protocol of "+recv)
				}
				if k, ok := e.obj.(*types.Const); ok && live(ownName(k.Type())) {
					mark(key, "value of "+ownName(k.Type()))
				}
				continue
			}
			var reach types.Type
			switch o := e.obj.(type) {
			case *types.Func:
				reach = o.Type()
			case *types.TypeName:
				if st, ok := o.Type().Underlying().(*types.Struct); ok {
					reach = st
				}
			}
			for _, name := range ownTypes(reach, api) {
				mark(name, "in the signature or fields of "+key)
			}
		}
	}

	var table strings.Builder
	fmt.Fprintf(&table, "%-24s %5s  %s\n", "name", "sites", "calling packages, or why it stays")
	for _, k := range names {
		e := surface[k]
		reason, allowed := censusAllow[k]
		switch {
		case !live(k):
			t.Errorf("exported ompss.%s has no non-test caller in the module or benchmark/: delete it (with the code only it reaches) or give it a reasoned censusAllow entry", k)
		case allowed && (e.sites > 0 || e.via != ""):
			t.Errorf("censusAllow[%q] is stale: %d call sites %s", k, e.sites, e.via)
		}
		note := e.via
		if e.sites > 0 {
			var ps []string
			for p := range e.pkgs {
				ps = append(ps, p)
			}
			sort.Strings(ps)
			note = strings.Join(ps, " ")
		} else if allowed {
			note = "allowlist: " + reason
		}
		fmt.Fprintf(&table, "%-24s %5d  %s\n", k, e.sites, note)
	}
	for k := range censusAllow {
		if surface[k] == nil {
			t.Errorf("censusAllow[%q] names nothing ompss exports", k)
		}
	}
	if n := len(censusAllow); n > censusAllowMax {
		t.Errorf("censusAllow has %d entries, at most %d: delete names instead of listing them", n, censusAllowMax)
	}
	t.Logf("%d exported names and methods, %d on the allowlist\n%s", len(names), len(censusAllow), table.String())
}

// ownTypes lists the named types of pkg that typ mentions, without looking
// inside them.
func ownTypes(typ types.Type, pkg *types.Package) []string {
	var out []string
	var walk func(types.Type)
	walk = func(typ types.Type) {
		switch t := typ.(type) {
		case *types.Named:
			if t.Obj().Pkg() == pkg {
				out = append(out, t.Obj().Name())
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		}
	}
	if typ != nil {
		walk(typ)
	}
	return out
}

// census type-checks module packages from source (non-test files only, so a
// test is never a caller) and the standard library from the toolchain's
// export data.
type census struct {
	t     *testing.T
	root  string
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
}

func newCensus(t *testing.T, root string) *census {
	exports := map[string]string{}
	for _, dir := range []string{root, filepath.Join(root, "benchmark")} {
		cmd := exec.Command("go", "list", "-export", "-deps",
			"-f", "{{if .Standard}}{{.ImportPath}}\t{{.Export}}{{end}}", "./...")
		cmd.Dir = dir
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
				exports[path] = file
			}
		}
	}
	c := &census{t: t, root: root, fset: token.NewFileSet(),
		pkgs: map[string]*types.Package{}, infos: map[string]*types.Info{}}
	c.std = importer.ForCompiler(c.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return c
}

func (c *census) Import(path string) (*types.Package, error) {
	if path == modulePath || strings.HasPrefix(path, modulePath+"/") {
		return c.load(path), nil
	}
	return c.std.Import(path)
}

func (c *census) load(path string) *types.Package {
	if p := c.pkgs[path]; p != nil {
		return p
	}
	dir := filepath.Join(c.root, strings.TrimPrefix(path, modulePath))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		c.t.Fatalf("census: %s: %v", path, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			c.t.Fatalf("census: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	p, err := (&types.Config{Importer: c}).Check(path, c.fset, files, info)
	if err != nil {
		c.t.Fatalf("census: type-check %s: %v", path, err)
	}
	c.pkgs[path], c.infos[path] = p, info
	return p
}

// callers lists the import path of every directory under root that holds
// non-test Go files — the nested benchmark module included, whose import
// path is the main module's plus its directory.
func (c *census) callers(root string) []string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); p != root && (strings.HasPrefix(n, ".") || n == "testdata") {
			return filepath.SkipDir
		}
		if bp, err := build.ImportDir(p, 0); err == nil && len(bp.GoFiles) > 0 {
			rel, _ := filepath.Rel(root, p)
			paths = append(paths, filepath.ToSlash(filepath.Join(modulePath, rel)))
		}
		return nil
	})
	if err != nil {
		c.t.Fatal(err)
	}
	return paths
}
