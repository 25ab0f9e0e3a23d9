package repro

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testOnlyAllowed lists the exported declarations under internal/ that no
// program code uses and that stay anyway. A key is "pkg.Name" for a
// function or type and "pkg.Type.Method" for a method. Each value gives the
// reason. An entry that no longer excuses anything fails the guard, so the
// list cannot outlive its reasons.
var testOnlyAllowed = map[string]string{
	"routing.NewEAR":         "the EAR fixture of 12 test files in 3 packages",
	"topology.Graph.AddNode": "the hand-built, non-mesh graph fixture of 2 test files in 2 packages",
	"topology.MustMesh":      "the mesh fixture of 9 test files in 6 packages",
}

// TestNoTestOnlyExports fails when an exported top-level function, type or
// method in non-test code under internal/ is used by no non-test Go code of
// the repository (cmd/, examples/ and the bench/ module included). Such a
// declaration is API that only tests reach: delete it and let its tests use
// what the program uses, or, if it must stay, add it to testOnlyAllowed with
// the reason.
func TestNoTestOnlyExports(t *testing.T) {
	flagged, stale, err := testOnlyExports(".", testOnlyAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range flagged {
		t.Errorf("%s: exported %s is used by no non-test code; delete it or allowlist it with a reason", d.pos, d.id)
	}
	for _, key := range stale {
		t.Errorf("testOnlyAllowed[%q] excuses nothing; remove the entry", key)
	}
}

// TestTestOnlyExportsFixture runs the checker over a small tree whose
// answer is known, so a guard that can never fail does not pass unseen.
func TestTestOnlyExportsFixture(t *testing.T) {
	allowed := map[string]string{
		"widget.Absent": "matches no declaration",
	}
	flagged, stale, err := testOnlyExports(filepath.Join("testdata", "testonly"), allowed)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, d := range flagged {
		ids = append(ids, d.id)
	}
	// Flagged: Unused is named only in a comment and in a _test.go file.
	// Gadget.Spin is called only by widget_test.go, though program code
	// calls Rotor.Spin. Turner.Halt is never called through Turner, though
	// program code calls Rotor.Halt. Gear is named only by the field
	// Rotor.Gear.
	//
	// Not flagged: Used is called by a sibling function and Benched only by
	// bench/-style program code. Rotor.Turn is reached only through a call
	// of Turner.Turn, Gadget.Tilt only from a _arm64.go file, and
	// Gadget.String through fmt.Stringer.
	want := "widget.Gadget.Spin widget.Gear widget.Turner.Halt widget.Unused"
	if got := strings.Join(ids, " "); got != want {
		t.Errorf("flagged %q, want %q", got, want)
	}
	if got, want := strings.Join(stale, " "), "widget.Absent"; got != want {
		t.Errorf("stale allowlist entries %q, want %q", got, want)
	}
}

type exportedDecl struct {
	id  string // "pkg.Name" or "pkg.Type.Method"
	pos token.Position
}

// guardArchs are the GOARCH values whose file sets the guard checks: amd64
// builds the AVX2 kernel's Go side, arm64 the portable min-plus loop.
var guardArchs = []string{"amd64", "arm64"}

// implicitlyCalled names the standard library interfaces whose methods the
// library calls on program values without program code naming the call
// (error is the predeclared one).
var implicitlyCalled = []struct{ pkg, name string }{
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"encoding", "TextMarshaler"},
	{"net/http", "Handler"},
	{"flag", "Value"},
}

// stdlib type-checks standard library packages from source. It is shared,
// so each package is checked once per test binary; its file set holds the
// positions of every file the guard parses.
var stdlib = sync.OnceValues(func() (*token.FileSet, types.Importer) {
	// No program package uses cgo, and the standard library's pure Go
	// files suffice for its API, so no C toolchain has to run.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return fset, importer.ForCompiler(fset, "source", nil)
})

// testOnlyExports type-checks every non-test Go package under root, once
// for each GOARCH in guardArchs, skipping testdata and hidden directories.
// A directory with a go.mod file starts a module, so a nested module whose
// go.mod replaces the outer one resolves its imports to the same tree. It
// returns the exported top-level functions, types and methods declared
// under root/internal that no program code uses in either file set and
// that allowed does not excuse, sorted by id, and the allowed keys that
// excuse no such declaration.
//
// A method counts as used when program code selects it, and a concrete
// method also when its type implements an interface whose same-named method
// program code calls, or one of the implicitlyCalled interfaces. So an
// interface method is used only when it is called through its interface.
func testOnlyExports(root string, allowed map[string]string) (flagged []exportedDecl, stale []string, err error) {
	dirs, internal, err := packageDirs(root)
	if err != nil {
		return nil, nil, err
	}
	fset, std := stdlib()
	decls := map[string]token.Position{}
	used := map[string]bool{}
	for _, arch := range guardArchs {
		ctx := build.Default
		ctx.GOARCH = arch
		l := &loader{ctx: ctx, fset: fset, std: std, dirs: dirs, pkgs: map[string]*types.Package{},
			info: &types.Info{Uses: map[*ast.Ident]types.Object{}}}
		if err := l.checkAll(); err != nil {
			return nil, nil, err
		}
		if err := l.collect(internal, decls, used); err != nil {
			return nil, nil, err
		}
	}

	excused := map[string]bool{}
	for id, pos := range decls {
		switch {
		case used[id]:
		case allowed[id] != "":
			excused[id] = true
		default:
			flagged = append(flagged, exportedDecl{id, pos})
		}
	}
	for key := range allowed {
		if !excused[key] {
			stale = append(stale, key)
		}
	}
	sort.Slice(flagged, func(i, j int) bool { return flagged[i].id < flagged[j].id })
	sort.Strings(stale)
	return flagged, stale, nil
}

// packageDirs maps the import path of every directory under root that holds
// non-test Go files to that directory, and reports which of them lie under
// root/internal.
func packageDirs(root string) (dirs map[string]string, internal map[string]bool, err error) {
	dirs, internal = map[string]string{}, map[string]bool{}
	modules := map[string]string{} // module root directory → module path
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			mod, err := modulePath(filepath.Join(path, "go.mod"))
			if err == nil {
				modules[path] = mod
			} else if path == root || !errors.Is(err, fs.ErrNotExist) {
				return err
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		modRoot := dir
		for modules[modRoot] == "" {
			modRoot = filepath.Dir(modRoot)
		}
		rel, err := filepath.Rel(modRoot, dir)
		if err != nil {
			return err
		}
		importPath := modules[modRoot]
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		dirs[importPath] = dir
		if rel, err := filepath.Rel(root, dir); err == nil && strings.HasPrefix(filepath.ToSlash(rel), "internal/") {
			internal[importPath] = true
		}
		return nil
	})
	return dirs, internal, err
}

// modulePath reads the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 2 && fields[0] == "module" {
			return fields[1], nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// loader type-checks the program packages of one GOARCH from source,
// recording every use of an object in info. Imports outside dirs go to the
// standard library importer.
type loader struct {
	ctx  build.Context
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string
	pkgs map[string]*types.Package
	info *types.Info
}

func (l *loader) checkAll() error {
	paths := make([]string, 0, len(l.dirs))
	for path := range l.dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		_, err := l.Import(path)
		var noGo *build.NoGoError
		if err != nil && !errors.As(err, &noGo) { // NoGoError: every file is for other GOARCH values
			return err
		}
	}
	return nil
}

func (l *loader) Import(path string) (*types.Package, error) {
	dir, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("GOARCH=%s: %w", l.ctx.GOARCH, err)
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// collect adds the exported declarations of the internal packages to decls
// and the ids of the objects program code uses to used.
func (l *loader) collect(internal map[string]bool, decls map[string]token.Position, used map[string]bool) error {
	var methods []*types.Func // concrete methods of the internal packages
	for path, pkg := range l.pkgs {
		if !internal[path] {
			continue
		}
		add := func(obj types.Object) {
			if obj.Exported() {
				decls[objectID(obj)] = l.fset.Position(obj.Pos())
			}
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				add(obj)
			case *types.TypeName:
				add(obj)
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				if iface, ok := named.Underlying().(*types.Interface); ok {
					for i := 0; i < iface.NumExplicitMethods(); i++ {
						add(iface.ExplicitMethod(i))
					}
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						add(m)
						methods = append(methods, m)
					}
				}
			}
		}
	}

	called := map[*types.Func]bool{} // interface methods called by program code
	for _, obj := range l.info.Uses {
		if obj.Pkg() == nil {
			continue // predeclared
		}
		if fn, ok := obj.(*types.Func); ok {
			fn = fn.Origin()
			if interfaceOf(fn) != nil {
				called[fn] = true
			}
			obj = fn
		}
		if id := objectID(obj); id != "" {
			used[id] = true
		}
	}
	called[types.Universe.Lookup("error").Type().Underlying().(*types.Interface).Method(0)] = true
	for _, ic := range implicitlyCalled {
		pkg, err := l.std.Import(ic.pkg)
		if err != nil {
			return err
		}
		iface := pkg.Scope().Lookup(ic.name).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			called[iface.Method(i)] = true
		}
	}

	for _, m := range methods {
		id := objectID(m)
		if used[id] {
			continue
		}
		recv := m.Signature().Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if named, ok := recv.(*types.Named); ok && named.TypeParams().Len() > 0 {
			continue // a generic type implements nothing until instantiated
		}
		for im := range called {
			if im.Name() != m.Name() {
				continue
			}
			iface := interfaceOf(im)
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				used[id] = true
				break
			}
		}
	}
	return nil
}

// interfaceOf returns the interface that declares fn, or nil when fn is a
// function or a concrete method.
func interfaceOf(fn *types.Func) *types.Interface {
	recv := fn.Signature().Recv()
	if recv == nil {
		return nil
	}
	iface, _ := recv.Type().Underlying().(*types.Interface)
	return iface
}

// objectID names a package-level object "pkg.Name" and a method of a named
// type "pkg.Type.Method", with the package's name. Any other object (a
// field, a local, a method of an interface literal) gets "", so it cannot
// stand in for a declaration of the same name.
func objectID(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return obj.Pkg().Name() + "." + named.Obj().Name() + "." + obj.Name()
			}
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Name() + "." + obj.Name()
}
