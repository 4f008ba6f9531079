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
	"sort"
	"strings"
	"testing"
)

// censusAllow lists the exported names of package ompss that stay without a
// non-test caller outside the package, each with the contract it serves.
var censusAllow = map[string]string{
	"Priority":         "the tenant boost pays rent: serve's gold p50 1.0-1.3 ms vs bronze 2.2-2.9 ms with it, every tenant 1.3-1.7 ms without (EXPERIMENTS.md, tenant boost); the clause is the only way onto the priority lanes (TestTenantPriority, schedfuzz)",
	"Seed":             "fixes the steal-victim RNG; the schedule fuzzers sweep it so a failing schedule can be replayed",
	"Session.Cancel":   "failure-confinement contract: cancels one session and no other (TestSessionCancelIsolation)",
	"Runtime.Err":      "first runtime-level failure, and what disarms the Shutdown panic valve (TestUnobservedPanicResurfacesAtShutdown, TestTaskPanicBecomesHandleError, TestTaskFailureWithoutHandle)",
	"Handle.Done":      "the future's completion channel: per-task select/timeout (TestHandleDoneRace, TestHandleOutlivesSession)",
	"ErrSessionClosed": "errors.Is target of spawns refused or skipped by Session.Close (TestSessionCloseSkipsPending)",
	"SkipError":        "errors.As target carrying the label and cause of a skipped task; ErrSkipped, which has callers, only matches it",
	"TaskPanic":        "errors.As target a panicking body is wrapped into (TestTaskPanicBecomesHandleError, TestCommutativePanicReleasesLocks)",
}

// censusPackage is how one package is censused. Its allowlist names the
// exported names that stay without a non-test caller, each with the test or
// contract it serves; the census fails on any other uncalled name, on an
// entry that has gained a caller, and on a list longer than max.
type censusPackage struct {
	allow map[string]string
	max   int

	// knobs names a struct each exported field of which counts as a name
	// of its own, in use only where a composite literal outside the
	// package sets it.
	knobs string
	// outsideOnly counts only other packages as callers. Without it the
	// package's own non-test code calls its functions, methods, variables
	// and constants too (not its types, which every method declaration
	// names, and not a function's use of itself).
	outsideOnly bool
}

// censusAllowVM keeps the simulator primitives that only the recorded event
// streams still exercise: they drive the vm/sync-mix program of
// TestEventStreamsMatchRecorded (internal/vm/equiv_test.go, an external
// test package), whose digests must never be re-recorded for a change that
// does not mean to alter the modelled machine. Cond and SpinBarrier follow
// from the signatures.
var censusAllowVM = map[string]string{
	"Thread.CondWait":        "vm/sync-mix: Cond waiters (TestEventStreamsMatchRecorded)",
	"Thread.CondBroadcast":   "vm/sync-mix: Cond wake-all (TestEventStreamsMatchRecorded)",
	"Thread.SpinBarrierWait": "vm/sync-mix: spin-barrier rounds (TestEventStreamsMatchRecorded)",
	"Thread.Sleep":           "vm/sync-mix: timed blocking (TestEventStreamsMatchRecorded)",
	"Thread.Yield":           "vm/sync-mix: yield on a shared core (TestEventStreamsMatchRecorded)",
}

// censusRules holds the packages censused other than by the default rule,
// the zero censusPackage: own code calls, and the allowlist is empty. Every
// other non-main package of the module is censused by the default rule, so
// a new package joins the census as it lands.
var censusRules = map[string]censusPackage{
	"ompss":       {allow: censusAllow, max: 8, knobs: "Tuning", outsideOnly: true},
	"internal/vm": {allow: censusAllowVM, max: 5},

	// The references and probes below serve tests of other packages: each
	// is what such a test compares a variant against, or how it watches
	// the runtime.
	"internal/img": {max: 1, allow: map[string]string{
		"PSNR": "the decoder's quality floor (h264dec TestDecodedQuality, h264 TestEncodeDecodeRoundtrip)",
	}},
	"internal/kernels/bodytrack": {max: 1, allow: map[string]string{
		"PoseError": "the tracking-quality measure of suite/bodytrack TestTrackedErrorBeatsStatic",
	}},
	"internal/kernels/kmeans": {max: 2, allow: map[string]string{
		"Problem.Run":  "the single-centroid reference of suite/kmeans TestClusteringQuality",
		"Problem.Cost": "the clustering cost suite/kmeans TestClusteringQuality compares",
	}},
	"internal/suite/rotate": {max: 1, allow: map[string]string{
		"Instance.Source": "TestRequestInputsArePrivate (internal/serve) checks no two held instances share an input",
	}},
	"internal/suite/rgbcmy": {max: 1, allow: map[string]string{
		"Instance.Source": "TestRequestInputsArePrivate (internal/serve) checks no two held instances share an input",
	}},
	"internal/poolcheck": {max: 3, allow: map[string]string{
		"Install":     "the ompss, internal/serve and internal/suite test binaries install the poisoning probe in TestMain",
		"Probe.Await": "the record books of TestSessionChurnReturnsMemory (ompss) and TestSoakSessionChurn (internal/serve)",
		"Probe.Made":  "the pool refills the allocation pins of ompss pool_test.go net out under -race",
	}},
}

// censusProtocols are methods the standard library calls through an
// interface, never by name.
var censusProtocols = map[string]string{
	"Error":  "error protocol",
	"Unwrap": "error protocol",
	"Is":     "error protocol",
	"String": "fmt.Stringer protocol",
}

const modulePath = "ompssgo"

// censusEntry is one exported package-level name or method of a censused
// package.
type censusEntry struct {
	obj   types.Object
	sites int             // uses in non-test files of its callers
	pkgs  map[string]bool // where
	via   string          // the rule that keeps a name with no call site of its own
}

// TestAPICensus type-checks every non-test package of the module and of the
// nested benchmark module. A command of the main module (cmd/*, examples/*)
// must reference every function and method it declares from its own
// non-test code (checkMain). Every other package is censused by its API:
// each exported identifier and method must be in use among them,
// or carry a reasoned allowlist entry. In use means: named or called by a caller — another
// package, and for all but ompss the package's own code too; or the
// implementation of a module interface's method that a caller calls
// through that interface; or a type in the signature of a live function, a field
// type of a live struct, a constant of a live type, or a protocol method
// (Error, Unwrap, Is, String) of a live type. Each exported field of
// ompss.Tuning is a knob and counts as a name of its own: it is in use only
// where a Tuning literal outside package ompss sets it. Run with -v (make
// census) for each package's table.
func TestAPICensus(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	c := newCensus(t, root)
	paths := c.callers(root)
	for _, path := range paths {
		c.load(path)
	}
	censused := map[string]bool{}
	for _, path := range paths {
		short := strings.TrimPrefix(path, modulePath+"/")
		if c.pkgs[path].Name() == "main" {
			// Nothing imports a command, so only its own code can call
			// its functions. The nested benchmark module is left out: its
			// chainsProg.Class and readersProg.Class
			// (benchmark/programs.go:189, :297) have no caller since
			// suite.Instance lost Class, and go with the next change that
			// edits benchmark/.
			if !strings.HasPrefix(short, "benchmark") {
				t.Run(short, func(t *testing.T) { c.checkMain(t, path) })
			}
			continue
		}
		censused[short] = true
		t.Run(short, func(t *testing.T) { c.check(t, path, censusRules[short], paths) })
	}
	for short := range censusRules {
		if !censused[short] {
			t.Errorf("census rule for %s names no non-main package of the module", short)
		}
	}
}

// checkMain censuses a command: every function and method it declares must
// be referenced by its own non-test code, except main and the protocol
// methods (init is not a declared name). A method called through an
// interface, in any package, is referenced on every type of the command
// that implements it.
func (c *census) checkMain(t *testing.T, path string) {
	scope := c.pkgs[path].Scope()
	var fns []*types.Func
	var named []*types.Named
	for _, name := range scope.Names() {
		switch o := scope.Lookup(name).(type) {
		case *types.Func:
			if name != "main" {
				fns = append(fns, o)
			}
		case *types.TypeName:
			if n, ok := o.Type().(*types.Named); ok && !o.IsAlias() && !types.IsInterface(n) {
				named = append(named, n)
				for i := 0; i < n.NumMethods(); i++ {
					if m := n.Method(i); censusProtocols[m.Name()] == "" {
						fns = append(fns, m)
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for _, info := range c.infos {
		for id, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if fn.Scope() != nil && fn.Scope().Contains(id.Pos()) {
				continue // a function's use of itself
			}
			used[fn.Origin()] = true
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil || !types.IsInterface(recv.Type()) {
				continue
			}
			it := recv.Type().Underlying().(*types.Interface)
			for _, n := range named {
				if types.Implements(types.NewPointer(n), it) {
					m, _, _ := types.LookupFieldOrMethod(types.NewPointer(n), true, n.Obj().Pkg(), fn.Name())
					used[m] = true
				}
			}
		}
	}
	for _, fn := range fns {
		if !used[fn] {
			t.Errorf("%s declares %s, which no non-test code of the module references: delete it", path, fn.FullName())
		}
	}
	t.Logf("%d functions and methods", len(fns))
}

func (c *census) check(t *testing.T, path string, cp censusPackage, paths []string) {
	api := c.load(path)
	scope := api.Scope()

	surface := map[string]*censusEntry{}
	var concrete []*types.TypeName
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		surface[name] = &censusEntry{obj: obj}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
			continue // an interface's methods are credited to the implementers
		}
		concrete = append(concrete, tn)
		named := tn.Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				surface[name+"."+m.Name()] = &censusEntry{obj: m}
			}
		}
	}
	// A knob is credited where a composite-literal key names it (the key
	// arrives in Info.Uses as the field's *types.Var).
	knobs := map[*types.Var]string{}
	if tn, ok := scope.Lookup(cp.knobs).(*types.TypeName); ok {
		st := tn.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				knobs[f] = cp.knobs + "." + f.Name()
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
	for _, path := range paths {
		own := path == api.Path()
		if own && cp.outsideOnly {
			continue
		}
		short := strings.TrimPrefix(path, modulePath+"/")
		credit := func(key string) {
			e := surface[key]
			if e == nil {
				return
			}
			if _, isType := e.obj.(*types.TypeName); isType && own {
				return // every method declaration names its receiver type
			}
			if e.pkgs == nil {
				e.pkgs = map[string]bool{}
			}
			e.sites++
			e.pkgs[short] = true
		}
		for id, obj := range c.infos[path].Uses {
			fn, isFunc := obj.(*types.Func)
			if own && isFunc && fn.Scope() != nil && fn.Scope().Contains(id.Pos()) {
				continue // a function's use of itself
			}
			var recv types.Type
			if isFunc && fn.Type().(*types.Signature).Recv() != nil {
				recv = fn.Type().(*types.Signature).Recv().Type()
			}
			// A call through an interface of the module reaches every type
			// of this package that implements it (the standard library's
			// interfaces are the protocols).
			if recv != nil && types.IsInterface(recv) {
				if !fn.Exported() || fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), modulePath+"/") {
					continue
				}
				credit(ownName(recv))
				it := recv.Underlying().(*types.Interface)
				for _, tn := range concrete {
					if types.Implements(types.NewPointer(tn.Type()), it) {
						credit(tn.Name() + "." + fn.Name())
					}
				}
				continue
			}
			if obj.Pkg() != api || !obj.Exported() {
				continue
			}
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				credit(knobs[v]) // other fields: credited to the struct through Selections below
				continue
			}
			if recv == nil {
				credit(obj.Name())
				continue
			}
			credit(ownName(recv))
			credit(ownName(recv) + "." + fn.Name())
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

	// Liveness closure over signatures, fields, constants and protocols.
	live := func(key string) bool {
		e := surface[key]
		_, allowed := cp.allow[key]
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
				if p := censusProtocols[method]; isMethod && p != "" && live(recv) {
					mark(key, p+" of "+recv)
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

	pkg := api.Name()
	var table strings.Builder
	fmt.Fprintf(&table, "%-28s %5s  %s\n", "name", "sites", "calling packages, or why it stays")
	for _, k := range names {
		e := surface[k]
		reason, allowed := cp.allow[k]
		switch {
		case !live(k):
			t.Errorf("exported %s.%s has no non-test caller in the module or benchmark/: delete it (with the code only it reaches) or give it a reasoned allowlist entry", pkg, k)
		case allowed && (e.sites > 0 || e.via != ""):
			t.Errorf("%s allowlist entry %q is stale: %d call sites %s", api.Path(), k, e.sites, e.via)
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
		fmt.Fprintf(&table, "%-28s %5d  %s\n", k, e.sites, note)
	}
	for k := range cp.allow {
		if surface[k] == nil {
			t.Errorf("%s allowlist entry %q names nothing %s exports", api.Path(), k, pkg)
		}
	}
	if n := len(cp.allow); n > cp.max {
		t.Errorf("%s allowlist has %d entries, at most %d: delete names instead of listing them", api.Path(), n, cp.max)
	}
	t.Logf("%d exported names and methods, %d on the allowlist\n%s", len(names), len(cp.allow), table.String())
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
