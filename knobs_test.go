package sqo

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestKnobCensus holds every value a user or caller can set to
// testdata/knobs.golden, one sorted line each: the exported fields of
// the option structs (struct-valued fields expanded), every flag each
// command under cmd/ registers, the JSON fields of sqod's request bodies, and
// every environment variable the product reads. A new option, flag,
// request field or environment variable fails this test until the
// golden is re-pinned with -update, so the added line shows in review.
// The sources are read with go/parser: importing internal/server here
// would be an import cycle.
func TestKnobCensus(t *testing.T) {
	c := &census{t: t, fset: token.NewFileSet(), pkgs: map[string]*censusPkg{}}
	for _, root := range []struct{ dir, typ string }{
		{"internal/eval", "Options"},
		{"internal/qtree", "Options"},
		{"internal/lint", "Options"},
		{"internal/emptiness", "Options"},
		{"internal/bounded", "Options"},
		{"internal/store", "Options"},
		{"internal/incr", "Options"},
		{".", "ViewOptions"},
		{"internal/server", "Config"},
	} {
		p := c.pkg(root.dir)
		c.fields(p, p.name+"."+root.typ, root.typ)
	}
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range cmds {
		if cmd.IsDir() {
			c.flags(cmd.Name())
		}
	}
	c.requests()
	c.env()

	sort.Strings(c.lines)
	got := []byte(strings.Join(c.lines, "\n") + "\n")
	const golden = "testdata/knobs.golden"
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
		t.Errorf("the settable values changed; if that is meant, re-pin with -update and justify every added line.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

type census struct {
	t     *testing.T
	fset  *token.FileSet
	pkgs  map[string]*censusPkg
	lines []string
}

type censusPkg struct {
	name    string
	types   map[string]*ast.TypeSpec
	imports map[string]string // local name -> directory, for this module's packages
	files   []*ast.File
}

// pkg parses the non-test files of one directory of this module.
func (c *census) pkg(dir string) *censusPkg {
	if p := c.pkgs[dir]; p != nil {
		return p
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(paths) == 0 {
		c.t.Fatalf("no Go files in %s (%v)", dir, err)
	}
	p := &censusPkg{types: map[string]*ast.TypeSpec{}, imports: map[string]string{}}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(c.fset, path, nil, parser.ParseComments)
		if err != nil {
			c.t.Fatal(err)
		}
		p.name = f.Name.Name
		p.files = append(p.files, f)
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			rel, ok := strings.CutPrefix(ipath, "repro/")
			if !ok {
				continue
			}
			name := filepath.Base(rel)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			p.imports[name] = rel
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				p.types[ts.Name.Name] = ts
			}
			return true
		})
	}
	c.pkgs[dir] = p
	return p
}

// fields adds one line per exported field of the struct type typ of
// package p, expanding a field whose type is a struct of this module.
func (c *census) fields(p *censusPkg, prefix, typ string) {
	ts := p.types[typ]
	if ts == nil {
		c.t.Fatalf("%s: no type %s in package %s", prefix, typ, p.name)
	}
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		c.t.Fatalf("%s is not a struct type", prefix)
	}
	if len(st.Fields.List) == 0 {
		c.lines = append(c.lines, "option "+prefix+" {}")
	}
	for _, f := range st.Fields.List {
		deprecated := ""
		if f.Doc != nil && strings.Contains(f.Doc.Text(), "Deprecated:") {
			deprecated = " deprecated"
		}
		for _, name := range f.Names {
			if !name.IsExported() {
				continue
			}
			c.lines = append(c.lines, "option "+prefix+"."+name.Name+" "+types.ExprString(f.Type)+deprecated)
			q, typ := p, ""
			switch ft := f.Type.(type) {
			case *ast.Ident:
				typ = ft.Name
			case *ast.SelectorExpr:
				if x, ok := ft.X.(*ast.Ident); ok && p.imports[x.Name] != "" {
					q, typ = c.pkg(p.imports[x.Name]), ft.Sel.Name
				}
			}
			if nested := q.types[typ]; nested != nil {
				if _, ok := nested.Type.(*ast.StructType); ok {
					c.fields(q, prefix+"."+name.Name, typ)
				}
			}
		}
	}
}

// flagNameArg maps each flag-registering method of package flag and of
// *flag.FlagSet to the position of its name argument.
var flagNameArg = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0, "String": 0,
	"Uint": 0, "Uint64": 0, "Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1,
	"StringVar": 1, "UintVar": 1, "Uint64Var": 1, "Var": 1, "TextVar": 1,
}

// flags adds one line per flag the command registers, on package flag
// itself or on a FlagSet it makes with flag.NewFlagSet.
func (c *census) flags(cmd string) {
	p := c.pkg(filepath.Join("cmd", cmd))
	for _, f := range p.files {
		sets := map[string]bool{"flag": true}
		ast.Inspect(f, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && isCall(as.Rhs[0], "flag", "NewFlagSet") {
					sets[id.Name] = true
				}
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, ok := sel.X.(*ast.Ident)
			at, registers := flagNameArg[sel.Sel.Name]
			if !ok || !sets[x.Name] || !registers || len(call.Args) <= at {
				return true
			}
			lit, ok := call.Args[at].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				c.t.Errorf("%s: flag name is not a string literal", c.fset.Position(call.Pos()))
				return true
			}
			name, _ := strconv.Unquote(lit.Value)
			c.lines = append(c.lines, "flag "+cmd+" -"+name+" "+sel.Sel.Name)
			return true
		})
	}
}

// requests adds one line per JSON field of sqod's request bodies: the
// struct types of internal/server whose names end in Request.
func (c *census) requests() {
	p := c.pkg("internal/server")
	for name, ts := range p.types {
		st, ok := ts.Type.(*ast.StructType)
		if !ok || !strings.HasSuffix(name, "Request") {
			continue
		}
		for _, f := range st.Fields.List {
			tag := ""
			if f.Tag != nil {
				raw, _ := strconv.Unquote(f.Tag.Value)
				tag, _, _ = strings.Cut(reflect.StructTag(raw).Get("json"), ",")
			}
			if tag == "-" {
				continue
			}
			for _, id := range f.Names {
				key := tag
				if key == "" {
					key = id.Name
				}
				c.lines = append(c.lines, "json sqod "+name+"."+key+" "+types.ExprString(f.Type))
			}
		}
	}
}

// env adds one line per environment variable a non-test source file of
// the product reads.
func (c *census) env() {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == ".git" || path == "bench" || path == ".bench_build" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(c.fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !(isCall(call, "os", "Getenv") || isCall(call, "os", "LookupEnv")) {
				return true
			}
			name := "?"
			if lit, ok := call.Args[0].(*ast.BasicLit); ok {
				name, _ = strconv.Unquote(lit.Value)
			}
			c.lines = append(c.lines, "env "+name+" "+filepath.ToSlash(path))
			return true
		})
		return nil
	})
	if err != nil {
		c.t.Fatal(err)
	}
}

// isCall reports whether e calls pkg.fn.
func isCall(e ast.Expr, pkg, fn string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != fn {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == pkg
}
