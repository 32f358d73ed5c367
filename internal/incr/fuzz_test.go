package incr

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// fuzzRecursive are the recursive strata FuzzView builds on, each
// defining r/2 over the EDB: left-linear and non-linear closure, mutual
// recursion through s, and recursion guarded by the negated b.
var fuzzRecursive = []string{
	`r(X, Y) :- e(X, Y).
	 r(X, Y) :- r(X, Z), e(Z, Y).`,
	`r(X, Y) :- e(X, Y).
	 r(X, Y) :- r(X, Z), r(Z, Y).`,
	`r(X, Y) :- e(X, Y).
	 s(X, Y) :- r(X, Z), f(Z, Y).
	 r(X, Y) :- s(X, Z), e(Z, Y).`,
	`r(X, Y) :- e(X, Y), !b(X).
	 r(X, Y) :- e(X, Z), r(Z, Y), !b(X).`,
}

// fuzzLayers are the non-recursive strata a program may stack on r, in
// dependency order. The query layer, fuzzQuery, reads r beside a
// negated EDB atom and is always present.
var fuzzLayers = []string{
	`u(X) :- r(X, Y), g(Y).`,
	`v(X) :- r(X, X).`,
	`w(X, Y) :- r(X, Y), f(Y, X).
	 w(X, Y) :- f(X, Y), g(X).`,
	`k(X) :- u(X), v(X).
	 k(X) :- g(X), e(X, X).`,
	`z(X, Y) :- w(X, Y), r(Y, X), X != Y.`,
}

const fuzzQuery = `t(X, Y) :- r(X, Y), g(X), !b(Y).`

// fuzzProgram builds the program the control bytes name: a recursive
// stratum, the layers whose bit is set (with the ones they read), and
// the query layer.
func fuzzProgram(shape, layers byte) *ast.Program {
	want := make([]bool, len(fuzzLayers))
	for i := range want {
		want[i] = layers&(1<<uint(i)) != 0
	}
	// k reads u and v; z reads w.
	if want[3] {
		want[0], want[1] = true, true
	}
	if want[4] {
		want[2] = true
	}
	var b strings.Builder
	b.WriteString(fuzzRecursive[int(shape)%len(fuzzRecursive)])
	for i, l := range fuzzLayers {
		if want[i] {
			b.WriteString("\n" + l)
		}
	}
	b.WriteString("\n" + fuzzQuery + "\n?- t.")
	return parser.MustParseProgram(b.String())
}

// fuzzUniverse is every fact the batches draw from: e, f over a domain
// of 4, g and the negated b over the same.
func fuzzUniverse() []ast.Atom {
	const dom = 4
	var out []ast.Atom
	n := func(i int) ast.Term { return ast.N(float64(i)) }
	for i := 0; i < dom; i++ {
		for j := 0; j < dom; j++ {
			out = append(out, ast.NewAtom("e", n(i), n(j)), ast.NewAtom("f", n(i), n(j)))
		}
		out = append(out, ast.NewAtom("g", n(i)), ast.NewAtom("b", n(i)))
	}
	return out
}

// FuzzView maintains a view through batches the fuzz bytes spell out and
// holds it to a from-scratch evaluation after each one. The first three
// bytes pick the recursive stratum, the non-recursive layers over it,
// and the seed EDB (a third of the universe, drawn from that byte); each
// later byte is one fact, retracted when its high bit is set, or the end
// of a batch. After the seed and after every batch, the answers, every
// IDB predicate's facts and the batch's Changes must equal what
// evaluating the program from scratch over the same facts gives.
func FuzzView(f *testing.F) {
	f.Add([]byte{0, 0, 1, 3, 0x85, 0x7f, 0x83, 5})
	f.Add([]byte{1, 0x1f, 2, 0x80, 0x81, 0x82, 0x7f, 0, 1, 2, 0x7f, 0x90, 0x10})
	f.Add([]byte{2, 0x0c, 3, 7, 0x87, 11, 0x7f, 0x8b, 0x87, 0x7f, 7})
	f.Add([]byte{3, 0x17, 4, 9, 0x89, 0x7f, 0x88, 8, 0x7f, 0x84, 0x81})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 64 {
			return
		}
		p := fuzzProgram(data[0], data[1])
		universe := fuzzUniverse()
		rng := rand.New(rand.NewSource(int64(data[2])))
		fs := factSet{}
		for _, a := range universe {
			if rng.Intn(3) == 0 {
				fs.apply([]ast.Atom{a}, nil)
			}
		}
		v, err := MaterializeCtx(context.Background(), p, fs.db(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		requireConsistent(t, "seed", v, p, fs)
		before := answersOf(t, v)

		// A byte's low seven bits modulo len(universe)+8 name a fact or,
		// past the universe, end the batch.
		var adds, dels []ast.Atom
		batch := 0
		flush := func() {
			if len(adds) == 0 && len(dels) == 0 {
				return
			}
			batch++
			ch, err := v.Apply(adds, dels)
			if err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
			fs.apply(adds, dels)
			label := fmt.Sprintf("batch %d", batch)
			requireConsistent(t, label, v, p, fs)
			after := answersOf(t, v)
			wantAdded, wantRemoved := diffStrings(before, after)
			if got := renderTuples(p.Query, ch.Added); !equalSets(got, wantAdded) {
				t.Fatalf("%s: Changes.Added %v, want %v", label, got, wantAdded)
			}
			if got := renderTuples(p.Query, ch.Removed); !equalSets(got, wantRemoved) {
				t.Fatalf("%s: Changes.Removed %v, want %v", label, got, wantRemoved)
			}
			before, adds, dels = after, nil, nil
		}
		for _, c := range data[3:] {
			i := int(c&0x7f) % (len(universe) + 8)
			switch {
			case i >= len(universe):
				flush()
			case c&0x80 != 0:
				dels = append(dels, universe[i])
			default:
				adds = append(adds, universe[i])
			}
		}
		flush()
	})
}
