package sqo

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestAPICensus holds every exported top-level func, var and const of
// the packages under internal/ to testdata/api.golden, one sorted line
// each with the class of its callers:
//
//	product     a reference from a non-test file of this module, outside
//	            the name's own declaration: cmd/, examples/, the facade,
//	            another package under internal/, or its own package
//	bench-only  no product reference, but one from bench/ (a module of
//	            its own, which imports the product through a replace)
//	reference   declared in internal/refeval, the naive interpreter the
//	            engine's tests check answers against
//	fixture     declared in internal/workload, the programs and data
//	            that tests and bench/ draw from
//
// A name with none of these — dead code, or code only a test calls —
// fails the test whatever the golden says; any other change to the list
// fails it until the golden is re-pinned with -update, so an added name
// shows in review. Types and methods are left out: callers reach them
// through values, which go/parser cannot follow.
func TestAPICensus(t *testing.T) {
	a := &apiCensus{fset: token.NewFileSet(), decls: map[string]string{}, refs: map[string]map[string]bool{}}
	for _, root := range []string{".", "bench"} {
		if err := a.walk(root); err != nil {
			t.Fatal(err)
		}
	}

	var lines, dead []string
	for name, kind := range a.decls {
		pkg, _, _ := strings.Cut(name, ".")
		class := ""
		switch refs := a.refs[name]; {
		case pkg == "refeval" && len(refs) > 0:
			class = "reference"
		case pkg == "workload" && len(refs) > 0:
			class = "fixture"
		case refs["product"]:
			class = "product"
		case refs["bench"]:
			class = "bench-only"
		default:
			dead = append(dead, name)
			class = "none"
		}
		lines = append(lines, name+" "+kind+" "+class)
	}
	sort.Strings(lines)
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s has no caller but tests: delete it, or call it", name)
	}

	got := []byte(strings.Join(lines, "\n") + "\n")
	const golden = "testdata/api.golden"
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the exported API of internal/ changed; if that is meant, re-pin with -update and justify every added line.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

type apiCensus struct {
	fset *token.FileSet
	// decls maps "pkg.Name" to "func", "var" or "const" for every
	// exported top-level name of a package under internal/.
	decls map[string]string
	// refs maps "pkg.Name" to the kinds of file that reference it:
	// "product", "test" and "bench".
	refs map[string]map[string]bool
}

// walk parses every Go file under root and records its declarations
// (for packages under internal/) and its references.
func (a *apiCensus) walk(root string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (path == "bench" || d.Name() == ".git" || d.Name() == ".bench_build" || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(a.fset, path, nil, 0)
		if err != nil {
			return err
		}
		kind := "product"
		switch {
		case root == "bench":
			kind = "bench"
		case strings.HasSuffix(path, "_test.go"):
			kind = "test"
		}
		pkg := ""
		if dir := filepath.ToSlash(filepath.Dir(path)); strings.HasPrefix(dir, "internal/") && kind == "product" {
			pkg = filepath.Base(dir)
		}
		a.file(f, pkg, kind)
		return nil
	})
}

// file records the exported top-level funcs, vars and consts f declares
// when pkg names its package under internal/, and every reference f
// makes to such a name: pkg.Name through an import of this module, or,
// in a file of the package itself (test files included), a bare Name
// outside the declaration that introduces it.
func (a *apiCensus) file(f *ast.File, pkg, kind string) {
	imports := map[string]string{}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		rel, ok := strings.CutPrefix(path, "repro/internal/")
		if !ok {
			continue
		}
		name := filepath.Base(rel)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = filepath.Base(rel)
	}
	own := pkg
	if own == "" && strings.HasPrefix(a.fset.Position(f.Pos()).Filename, "internal/") {
		// A test file of a package under internal/: its bare names
		// refer to the package's own declarations.
		own = filepath.Base(filepath.Dir(a.fset.Position(f.Pos()).Filename))
	}
	ref := func(name string) {
		if a.refs[name] == nil {
			a.refs[name] = map[string]bool{}
		}
		a.refs[name][kind] = true
	}
	for _, decl := range f.Decls {
		declared := map[string]bool{}
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				declared[d.Name.Name] = true
				if pkg != "" && d.Name.IsExported() {
					a.decls[pkg+"."+d.Name.Name] = "func"
				}
			}
		case *ast.GenDecl:
			if d.Tok == token.VAR || d.Tok == token.CONST {
				for _, spec := range d.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						declared[id.Name] = true
						if pkg != "" && id.IsExported() {
							a.decls[pkg+"."+id.Name] = d.Tok.String()
						}
					}
				}
			}
		}
		// Idents that name something other than a package-level
		// declaration: selected fields and methods, struct fields and
		// parameters, composite-literal keys, and the declared names.
		skip := map[*ast.Ident]bool{}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					skip[x] = true
					ref(imports[x.Name] + "." + n.Sel.Name)
				}
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					skip[id] = true
				}
			case *ast.FuncDecl:
				skip[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.TypeSpec:
				skip[n.Name] = true
			case *ast.Ident:
				if own != "" && !skip[n] && n.IsExported() && !declared[n.Name] {
					ref(own + "." + n.Name)
				}
			}
			return true
		})
	}
}
