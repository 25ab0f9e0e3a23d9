package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported declarations under internal/ that no
// program code names and that stay anyway. A key is "pkg.Name" for a
// function or type, "pkg.Type.Method" for one method, or a bare method name
// for every method of that name. Each value gives the reason. An entry that
// no longer excuses anything fails the guard, so the list cannot outlive its
// reasons.
var testOnlyAllowed = map[string]string{
	"topology.MustMesh": "the mesh fixture of 9 test files in 6 packages",
}

// TestNoTestOnlyExports fails when an exported top-level function, method
// or type in non-test code under internal/ is named by no non-test Go file
// of the repository (cmd/, examples/ and the bench/ module included) other
// than at its own declaration. Such a name is API that only tests reach:
// delete it and let its tests use what the program uses, or, if it must
// stay, add it to testOnlyAllowed with the reason.
func TestNoTestOnlyExports(t *testing.T) {
	flagged, stale, err := testOnlyExports(".", testOnlyAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range flagged {
		t.Errorf("%s: exported %s is named by no non-test code; delete it or allowlist it with a reason", d.pos, d.id)
	}
	for _, key := range stale {
		t.Errorf("testOnlyAllowed[%q] excuses nothing; remove the entry", key)
	}
}

// TestTestOnlyExportsFixture runs the checker over a small tree whose
// answer is known, so a guard that can never fail does not pass unseen.
func TestTestOnlyExportsFixture(t *testing.T) {
	allowed := map[string]string{
		"String":        "fmt.Stringer",
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
	// Unused is named only in a comment and in a _test.go file; Gadget.Spin
	// only in a _test.go file. Used is named by a sibling function, Benched
	// only by bench/-style program code, and Gadget.String is allowlisted.
	if got, want := strings.Join(ids, " "), "widget.Gadget.Spin widget.Unused"; got != want {
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

// testOnlyExports parses every non-test Go file under root, skipping
// testdata and hidden directories. It returns the exported top-level
// functions, methods and types declared under root/internal whose name
// occurs as an identifier nowhere but at its own declaration and that
// allowed does not excuse, sorted by id, and the allowed keys that excuse
// no such declaration.
func testOnlyExports(root string, allowed map[string]string) (flagged []exportedDecl, stale []string, err error) {
	fset := token.NewFileSet()
	var files []*ast.File
	var internal []bool
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files = append(files, f)
		internal = append(internal, strings.HasPrefix(filepath.ToSlash(rel), "internal/"))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	type candidate struct {
		exportedDecl
		ident  *ast.Ident
		method bool
	}
	var decls []candidate
	declared := map[*ast.Ident]bool{}
	for i, f := range files {
		if !internal[i] {
			continue
		}
		add := func(id string, ident *ast.Ident, method bool) {
			declared[ident] = true
			if ident.IsExported() {
				decls = append(decls, candidate{exportedDecl{id, fset.Position(ident.Pos())}, ident, method})
			}
		}
		pkg := f.Name.Name
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(pkg+"."+decl.Name.Name, decl.Name, false)
				} else {
					add(pkg+"."+receiverType(decl.Recv.List[0].Type)+"."+decl.Name.Name, decl.Name, true)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						add(pkg+"."+ts.Name.Name, ts.Name, false)
					}
				}
			}
		}
	}

	uses := map[string]int{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if ident, ok := n.(*ast.Ident); ok && !declared[ident] {
				uses[ident.Name]++
			}
			return true
		})
	}

	excused := map[string]bool{}
	for _, d := range decls {
		if uses[d.ident.Name] > 0 {
			continue
		}
		switch {
		case allowed[d.id] != "":
			excused[d.id] = true
		case d.method && allowed[d.ident.Name] != "":
			excused[d.ident.Name] = true
		default:
			flagged = append(flagged, d.exportedDecl)
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

// receiverType names a method's receiver type without its pointer.
func receiverType(expr ast.Expr) string {
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	if id, ok := expr.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
