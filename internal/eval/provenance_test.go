package eval

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

func TestProvenanceLinearChain(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	db := NewDB()
	db.AddFacts(parser.MustParseFacts(`step(1, 2). step(2, 3). step(3, 4).`))
	idb, prov, _, err := EvalProv(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if idb.Count("path") != 6 {
		t.Fatalf("path count = %d", idb.Count("path"))
	}
	tree, err := prov.Tree(ast.NewAtom("path", ast.N(1), ast.N(4)), p.IDB(), db)
	if err != nil {
		t.Fatal(err)
	}
	// A derivation of path(1,4) must bottom out in the three steps.
	s := tree.String()
	for _, leaf := range []string{"step(1, 2)", "step(2, 3)", "step(3, 4)"} {
		if !strings.Contains(s, leaf) {
			t.Fatalf("derivation misses %s:\n%s", leaf, s)
		}
	}
	size, depth := treeShape(tree)
	if depth < 3 {
		t.Fatalf("depth = %d, expected a nested derivation:\n%s", depth, s)
	}
	if size < 6 {
		t.Fatalf("size = %d:\n%s", size, s)
	}
	if tree.Rule == nil {
		t.Fatal("root must carry its rule")
	}
}

// treeShape returns a derivation tree's node count and height (a leaf
// has height 1).
func treeShape(d *Derivation) (size, depth int) {
	size = 1
	for _, c := range d.Children {
		n, h := treeShape(c)
		size += n
		depth = max(depth, h)
	}
	return size, depth + 1
}

func TestProvenanceEDBLeaf(t *testing.T) {
	p := parser.MustParseProgram(`
		q(X) :- e(X).
		?- q.
	`)
	db := NewDB()
	db.AddFacts(parser.MustParseFacts(`e(7).`))
	_, prov, _, err := EvalProv(p, db)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := prov.Tree(ast.NewAtom("e", ast.N(7)), p.IDB(), db)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.Rule != nil || len(leaf.Children) != 0 {
		t.Fatal("EDB fact must be a leaf")
	}
	if _, err := prov.Tree(ast.NewAtom("e", ast.N(99)), p.IDB(), db); err == nil {
		t.Fatal("absent EDB fact must error")
	}
	if _, err := prov.Tree(ast.NewAtom("q", ast.N(99)), p.IDB(), db); err == nil {
		t.Fatal("underived IDB fact must error")
	}
	if _, err := prov.Tree(ast.NewAtom("q", ast.V("X")), p.IDB(), db); err == nil {
		t.Fatal("non-ground fact must error")
	}
}

func TestProvenanceEveryDerivedFactHasATree(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
		sym(X) :- path(X, X).
		?- sym.
	`)
	db := NewDB()
	db.AddFacts(parser.MustParseFacts(`edge(1, 2). edge(2, 1). edge(2, 3).`))
	idb, prov, _, err := EvalProv(p, db)
	if err != nil {
		t.Fatal(err)
	}
	idbPreds := p.IDB()
	for _, pred := range []string{"path", "sym"} {
		for _, f := range idb.Facts(pred) {
			tree, err := prov.Tree(f, idbPreds, db)
			if err != nil {
				t.Fatalf("no derivation for %s: %v", f, err)
			}
			if !tree.Fact.Equal(f) {
				t.Fatalf("tree root mismatch: %s vs %s", tree.Fact, f)
			}
			// Every leaf must be a genuine EDB fact.
			var walk func(d *Derivation)
			walk = func(d *Derivation) {
				if d.Rule == nil {
					if !db.Contains(d.Fact) {
						t.Fatalf("leaf %s is not an EDB fact", d.Fact)
					}
					return
				}
				if !d.Rule.Head.Equal(d.Fact) {
					t.Fatalf("instantiated rule head %s does not match fact %s", d.Rule.Head, d.Fact)
				}
				for _, c := range d.Children {
					walk(c)
				}
			}
			walk(tree)
		}
	}
}
