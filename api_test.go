package sqo

import (
	"bytes"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// apiOracles are the exported methods kept although only tests call
// them: each is the oracle its tests check the product against.
var apiOracles = map[string]bool{
	"eval.(*Stats).Equal":      true, // what every differential compares Stats with
	"store.(*Store).DiffState": true, // the crash differential's state comparison
}

// TestAPICensus holds every exported top-level func, var and const of
// the packages under internal/, and every exported method and struct
// field declared there, to testdata/api.golden, one sorted line each
// with its class:
//
//	product     a non-test reader in this module, outside the name's own
//	            declaration: cmd/, examples/, the facade or internal/. A
//	            field is read only where its value is taken; assigning
//	            it or naming it in a composite literal is a write
//	interface   a method some interface in the program or its imports
//	            (fmt.Stringer, error, http.ResponseWriter, …) asks of
//	            its type
//	encoded     a field with a json tag: encoding/json reads it
//	facade      a method of a type the sqo facade re-exports that the
//	            README, examples/ or cmd/ names as Type.Method
//	bench-only  no product reader, but a reference from bench/ (a module
//	            of its own, which imports the product through a replace)
//	oracle      a method in apiOracles: only tests call it, by design
//	test-read   a field the product writes and only tests read: what
//	            the product reports for its tests to check
//	reference   declared in internal/refeval, the naive interpreter the
//	            engine's tests check answers against
//	fixture     declared in internal/workload, the programs and data
//	            that tests and bench/ draw from
//
// A name with none of these — dead code, code only a test calls, a
// field nothing reads — fails the test whatever the golden says; any
// other change to the list fails it until the golden is re-pinned with
// -update, so an added name shows in review. The sources are
// type-checked with go/types (the standard library from source), since
// methods and fields are reached through values.
func TestAPICensus(t *testing.T) {
	a := &apiCensus{
		fset:  token.NewFileSet(),
		pkgs:  map[string]*apiPkg{},
		decls: map[string]*apiDecl{},
		refs:  map[string]map[string]bool{},
	}
	a.std = importer.ForCompiler(a.fset, "source", nil).(types.ImporterFrom)
	for _, root := range [][2]string{{".", "repro"}, {"bench", "repro/bench"}} {
		if err := a.walk(root[0], root[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.check(); err != nil {
		t.Fatal(err)
	}
	facade, err := a.facade()
	if err != nil {
		t.Fatal(err)
	}

	var lines, dead []string
	for key, d := range a.decls {
		pkg, _, _ := strings.Cut(d.name, ".")
		class := d.class
		switch refs := a.refs[key]; {
		case pkg == "refeval" && len(refs) > 0:
			class = "reference"
		case pkg == "workload" && len(refs) > 0:
			class = "fixture"
		case refs["product"]:
			class = "product"
		case class != "":
		case facade[d.name]:
			class = "facade"
		case refs["bench"]:
			class = "bench-only"
		case apiOracles[d.name]:
			class = "oracle"
		case d.kind == "field" && refs["test"]:
			class = "test-read"
		default:
			dead = append(dead, d.name)
			class = "none"
		}
		lines = append(lines, d.name+" "+d.kind+" "+class)
	}
	sort.Strings(lines)
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s has no reader but tests: delete it, or read it", name)
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
	std  types.ImporterFrom
	// pkgs maps an import path of this module or bench/ to its files.
	pkgs map[string]*apiPkg
	// decls maps the position of an exported name declared under
	// internal/ to what the golden says of it.
	decls map[string]*apiDecl
	// refs maps the position of a name declared under internal/ to the
	// kinds of file that read it: "product", "test" and "bench".
	refs   map[string]map[string]bool
	ifaces []*types.Interface
}

type apiPkg struct {
	kind                string // "product" or "bench"
	files, tests, xtest []*ast.File
	types               *types.Package // of files alone, once checked
	info                *types.Info
}

type apiDecl struct {
	name, kind string
	class      string // "interface" or "encoded" when the declaration says so
}

// walk parses every Go file under root that the default build context
// selects, grouped by directory into a package, its in-package tests and
// its external tests.
func (a *apiCensus) walk(root, module string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Clean(dir), name); err != nil || !ok {
			return err
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(a.fset, abs, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Clean(dir))
		if err != nil {
			return err
		}
		imp := module
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		p := a.pkgs[imp]
		if p == nil {
			p = &apiPkg{kind: "product"}
			if module != "repro" {
				p.kind = "bench"
			}
			a.pkgs[imp] = p
		}
		switch {
		case strings.HasSuffix(f.Name.Name, "_test"):
			p.xtest = append(p.xtest, f)
		case strings.HasSuffix(name, "_test.go"):
			p.tests = append(p.tests, f)
		default:
			p.files = append(p.files, f)
		}
		return nil
	})
}

// ImportFrom type-checks a package of this module or bench/ from the
// files walk parsed, once, and leaves the rest to the source importer.
func (a *apiCensus) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	p := a.pkgs[path]
	if p == nil {
		return a.std.ImportFrom(path, dir, mode)
	}
	if p.types == nil {
		var err error
		if p.types, p.info, err = a.typecheck(path, p.files); err != nil {
			return nil, err
		}
	}
	return p.types, nil
}

func (a *apiCensus) Import(path string) (*types.Package, error) {
	return a.ImportFrom(path, "", 0)
}

// typecheck checks files as the package path and returns its first
// error. A test package's errors are dropped: its external tests may use
// what only its in-package tests declare.
func (a *apiCensus) typecheck(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	var first error
	conf := types.Config{Importer: a, Error: func(err error) {
		if first == nil {
			first = err
		}
	}}
	pkg, _ := conf.Check(path, a.fset, files, info)
	return pkg, info, first
}

// check type-checks every package, records the declarations under
// internal/ and every file's references to them.
func (a *apiCensus) check() error {
	paths := make([]string, 0, len(a.pkgs))
	for path := range a.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	a.ifaces = []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	for _, path := range paths {
		p := a.pkgs[path]
		if _, err := a.Import(path); err != nil {
			return err
		}
		a.interfaces(p.types, p.info, seen)
		for _, f := range p.files {
			a.file(f, p.info, p.kind)
		}
		tests := p.kind
		if tests == "product" {
			tests = "test"
		}
		if len(p.tests) > 0 {
			_, info, _ := a.typecheck(path, append(append([]*ast.File{}, p.files...), p.tests...))
			for _, f := range p.tests {
				a.file(f, info, tests)
			}
		}
		if len(p.xtest) > 0 {
			_, info, _ := a.typecheck(path+"_test", p.xtest)
			for _, f := range p.xtest {
				a.file(f, info, tests)
			}
		}
	}
	for _, path := range paths {
		if strings.HasPrefix(path, "repro/internal/") {
			a.declare(a.pkgs[path].types)
		}
	}
	return nil
}

func (a *apiCensus) key(pos token.Pos) string {
	p := a.fset.Position(pos)
	return p.Filename + ":" + strconv.Itoa(p.Offset)
}

// interfaces collects every interface the package and its imports
// declare, and every one the package spells out.
func (a *apiCensus) interfaces(pkg *types.Package, info *types.Info, seen map[*types.Package]bool) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	if info != nil {
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				a.ifaces = append(a.ifaces, it)
			}
		}
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil {
				if it, ok := n.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					a.ifaces = append(a.ifaces, it)
				}
			}
		}
	}
	for _, imp := range pkg.Imports() {
		a.interfaces(imp, nil, seen)
	}
}

// declare records the exported top-level names of pkg, and the exported
// methods and fields of the types it declares.
func (a *apiCensus) declare(pkg *types.Package) {
	name := pkg.Name()
	scope := pkg.Scope()
	for _, id := range scope.Names() {
		obj := scope.Lookup(id)
		switch obj := obj.(type) {
		case *types.Func:
			if obj.Exported() {
				a.decls[a.key(obj.Pos())] = &apiDecl{name: name + "." + id, kind: "func"}
			}
		case *types.Var:
			if obj.Exported() {
				a.decls[a.key(obj.Pos())] = &apiDecl{name: name + "." + id, kind: "var"}
			}
		case *types.Const:
			if obj.Exported() {
				a.decls[a.key(obj.Pos())] = &apiDecl{name: name + "." + id, kind: "const"}
			}
		case *types.TypeName:
			n, ok := obj.Type().(*types.Named)
			if !ok || obj.IsAlias() {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				m := n.Method(i)
				if !m.Exported() {
					continue
				}
				recv := id
				if _, ptr := m.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
					recv = "(*" + id + ")"
				}
				d := &apiDecl{name: name + "." + recv + "." + m.Name(), kind: "method"}
				if asked(n, m.Name(), a.ifaces) {
					d.class = "interface"
				}
				a.decls[a.key(m.Pos())] = d
			}
			st, ok := n.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || f.Embedded() {
					continue
				}
				d := &apiDecl{name: name + "." + id + "." + f.Name(), kind: "field"}
				if tag := reflect.StructTag(st.Tag(i)).Get("json"); tag != "" && tag != "-" {
					d.class = "encoded"
				}
				a.decls[a.key(f.Pos())] = d
			}
		}
	}
}

// asked reports whether an interface with a method called method is
// implemented by n or *n.
func asked(n *types.Named, method string, ifaces []*types.Interface) bool {
	var t types.Type = n
	if n.TypeParams() != nil {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}

// file records each reference f makes to a name declared under
// internal/, outside the declaration that introduces the name. A field
// assigned or keyed in a composite literal is written, not read, and
// only bench/'s writes count.
func (a *apiCensus) file(f *ast.File, info *types.Info, kind string) {
	written := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN {
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						written[sel.Sel] = true
					}
				}
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				written[id] = true
			}
		}
		return true
	})
	for _, decl := range f.Decls {
		ast.Inspect(decl, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "repro/internal/") {
				return true
			}
			if v, ok := obj.(*types.Var); ok && v.IsField() && written[id] && kind != "bench" {
				return true
			}
			if p := obj.Pos(); p >= decl.Pos() && p < decl.End() {
				return true // the declaration itself, or a recursive call
			}
			key := a.key(obj.Pos())
			if a.refs[key] == nil {
				a.refs[key] = map[string]bool{}
			}
			a.refs[key][kind] = true
			return true
		})
	}
}

// facade returns the methods of a type the sqo facade re-exports that
// the README, examples/ or cmd/ names as Type.Method.
func (a *apiCensus) facade() (map[string]bool, error) {
	aliases := map[string]string{} // facade name → "pkg.Type"
	scope := a.pkgs["repro"].types.Scope()
	for _, id := range scope.Names() {
		if tn, ok := scope.Lookup(id).(*types.TypeName); ok && tn.IsAlias() && tn.Exported() {
			if n, ok := tn.Type().(*types.Named); ok && n.Obj().Pkg() != nil {
				aliases[id] = n.Obj().Pkg().Name() + "." + n.Obj().Name()
			}
		}
	}
	var text []byte
	for _, root := range []string{"README.md", "examples", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			text = append(text, b...)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	names := map[string]bool{}
	for _, m := range regexp.MustCompile(`\b([A-Z]\w*)\.([A-Z]\w*)\b`).FindAllSubmatch(text, -1) {
		if typ := aliases[string(m[1])]; typ != "" {
			pkg, typ, _ := strings.Cut(typ, ".")
			names[pkg+"."+typ+"."+string(m[2])] = true
			names[pkg+".(*"+typ+")."+string(m[2])] = true
		}
	}
	return names, nil
}
