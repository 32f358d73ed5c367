package order

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
)

// The reference solver: the definitions the incremental solver must agree
// with, computed from scratch on every call. Satisfiability builds a
// fresh graph and closes it; implication is refutation through it.

func refGraph(atoms []ast.Cmp) (terms []ast.Term, adj [][]uint8, sat bool) {
	node := func(t ast.Term) int {
		for i, o := range terms {
			if o.Equal(t) {
				return i
			}
		}
		terms = append(terms, t)
		return len(terms) - 1
	}
	for _, a := range atoms {
		node(a.Left)
		node(a.Right)
	}
	n := len(terms)
	adj = make([][]uint8, n)
	for i := range adj {
		adj[i] = make([]uint8, n)
	}
	edge := func(u, v int, st uint8) {
		if adj[u][v] < st {
			adj[u][v] = st
		}
	}
	var neq [][2]int
	for _, a := range atoms {
		u, v := node(a.Left), node(a.Right)
		switch a.Op {
		case ast.LT:
			edge(u, v, 2)
		case ast.LE:
			edge(u, v, 1)
		case ast.GT:
			edge(v, u, 2)
		case ast.GE:
			edge(v, u, 1)
		case ast.EQ:
			edge(u, v, 1)
			edge(v, u, 1)
		case ast.NE:
			neq = append(neq, [2]int{u, v})
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if terms[a].IsConst() && terms[b].IsConst() && terms[a].Compare(terms[b]) < 0 {
				edge(a, b, 2)
			}
		}
	}
	for k := 0; k < n; k++ {
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if adj[u][k] > 0 && adj[k][v] > 0 {
					edge(u, v, max(adj[u][k], adj[k][v]))
				}
			}
		}
	}
	sat = true
	for u := 0; u < n; u++ {
		if adj[u][u] == 2 {
			sat = false
		}
	}
	for _, p := range neq {
		if p[0] == p[1] || (adj[p[0]][p[1]] > 0 && adj[p[1]][p[0]] > 0) {
			sat = false
		}
	}
	return terms, adj, sat
}

func refSat(atoms []ast.Cmp) bool {
	_, _, sat := refGraph(atoms)
	return sat
}

func with(atoms []ast.Cmp, c ast.Cmp) []ast.Cmp {
	return append(append([]ast.Cmp(nil), atoms...), c)
}

func refImplies(atoms []ast.Cmp, c ast.Cmp) bool {
	return !refSat(atoms) || !refSat(with(atoms, c.Negate()))
}

func refContradicts(atoms []ast.Cmp, c ast.Cmp) bool { return !refSat(with(atoms, c)) }

// refForced maps every variable to the constant the atoms force it
// equal to, else to the least variable they force it equal to.
func refForced(atoms []ast.Cmp) map[string]ast.Term {
	out := map[string]ast.Term{}
	terms, adj, sat := refGraph(atoms)
	if !sat {
		return out
	}
	for u, t := range terms {
		if t.IsConst() {
			continue
		}
		rep := t
		for v, o := range terms {
			if adj[u][v] == 0 || adj[v][u] == 0 {
				continue
			}
			if o.IsConst() && rep.IsVar() || o.IsVar() && rep.IsVar() && o.Name < rep.Name {
				rep = o
			}
		}
		if !rep.Equal(t) {
			out[t.Name] = rep
		}
	}
	return out
}

// diffPool is the vocabulary of generated conjunctions; query atoms
// also draw from diffExtra, terms no conjunction can mention.
var (
	diffPool = []ast.Term{
		ast.V("X"), ast.V("Y"), ast.V("Z"), ast.V("W"), ast.V("U"),
		ast.N(-1), ast.N(0), ast.N(math.Copysign(0, -1)), ast.N(1), ast.N(2), ast.N(2.5),
		ast.S("a"), ast.S("b"),
	}
	diffExtra = []ast.Term{ast.V("V"), ast.N(-2), ast.N(0.5), ast.N(3), ast.S("ab"), ast.S("c")}
	diffOps   = []ast.CmpOp{ast.LT, ast.LE, ast.GT, ast.GE, ast.EQ, ast.NE}
)

// byteReader hands out the bytes of a test input, then zeros.
type byteReader struct {
	data []byte
}

func (r *byteReader) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

func (r *byteReader) atom(pool []ast.Term) ast.Cmp {
	return ast.NewCmp(pool[r.next()%len(pool)], diffOps[r.next()%len(diffOps)], pool[r.next()%len(pool)])
}

// agree checks every query of s against the reference over atoms.
func agree(t *testing.T, s *Set, atoms []ast.Cmp, queries []ast.Cmp) {
	t.Helper()
	if got, want := s.Satisfiable(), refSat(atoms); got != want {
		t.Fatalf("{%s}: Satisfiable = %v, reference %v", s, got, want)
	}
	for _, q := range queries {
		imp, con := refImplies(atoms, q), refContradicts(atoms, q)
		for round := 0; round < 2; round++ { // the second round reads the closure after scratch writes
			if got := s.Implies(q); got != imp {
				t.Fatalf("{%s}: Implies(%v) = %v, reference %v (round %d)", s, q, got, imp, round)
			}
			if got := s.Contradicts(q); got != con {
				t.Fatalf("{%s}: Contradicts(%v) = %v, reference %v (round %d)", s, q, got, con, round)
			}
		}
	}
	got, want := s.ForcedEqualities(), refForced(atoms)
	if len(got) != len(want) {
		t.Fatalf("{%s}: ForcedEqualities = %v, reference %v", s, got, want)
	}
	for v, rep := range want {
		if g, ok := got[v]; !ok || !g.Equal(rep) {
			t.Fatalf("{%s}: ForcedEqualities = %v, reference %v", s, got, want)
		}
	}
}

// checkAgainstReference decodes one conjunction, a few query atoms and
// two later additions from data, and checks the solver against the
// reference after every Add of the conjunction (each extends a closed
// graph in place), after an Add that follows queries, and on a Clone
// taken in between (it must not see the original's Add, nor the
// original the clone's). Last, the original is Reset and refilled with
// the conjunction in reverse: the storage it keeps must not leak the
// old graph into the new one.
func checkAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	r := &byteReader{data: data}
	var atoms []ast.Cmp
	for i, m := 0, r.next()%8; i < m; i++ {
		atoms = append(atoms, r.atom(diffPool))
	}
	all := append(append([]ast.Term(nil), diffPool...), diffExtra...)
	var queries []ast.Cmp
	for i := 0; i < 5; i++ {
		queries = append(queries, r.atom(all))
	}
	s := NewSet()
	agree(t, s, nil, queries)
	for i, a := range atoms {
		s.Add(a)
		agree(t, s, atoms[:i+1], queries)
	}

	clone := s.Clone()
	e1, e2 := r.atom(diffPool), r.atom(diffPool)
	s.Add(e1)
	agree(t, s, with(atoms, e1), queries)
	agree(t, clone, atoms, queries)
	clone.Add(e2)
	agree(t, clone, with(atoms, e2), queries)
	agree(t, s, with(atoms, e1), queries)

	s.Reset()
	rev := slices.Clone(atoms)
	slices.Reverse(rev)
	s.AddAll(rev)
	agree(t, s, rev, queries)
}

func TestSolverAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	data := make([]byte, 48)
	for trial := 0; trial < 10000; trial++ {
		rng.Read(data)
		checkAgainstReference(t, data)
	}
}

func FuzzOrder(f *testing.F) {
	f.Add([]byte{2, 0, 1, 6, 0, 3, 7, 0, 4, 6})    // X <= 0, X >= -0 ⊨ X = 0
	f.Add([]byte{3, 0, 0, 1, 1, 0, 2, 0, 5, 2})    // X < Y < Z, X != Z
	f.Add([]byte{1, 11, 0, 0, 0, 0, 16, 0, 3, 17}) // a < X against absent constants
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, data)
		checkLinearizations(t, data)
	})
}

// bruteLinearizations is the unpruned enumeration: every total
// preorder of terms, built by the same recursion (each next term joins
// an existing group or opens one at every gap), kept iff base plus the
// pinning atoms is satisfiable.
func bruteLinearizations(terms []ast.Term, base *Set, fn func([][]ast.Term) bool) {
	var rec func(i int, groups [][]ast.Term) bool
	rec = func(i int, groups [][]ast.Term) bool {
		if i == len(terms) {
			lin := base.Clone()
			for gi, g := range groups {
				for _, t := range g[1:] {
					lin.Add(ast.NewCmp(g[0], ast.EQ, t))
				}
				if gi+1 < len(groups) {
					lin.Add(ast.NewCmp(g[0], ast.LT, groups[gi+1][0]))
				}
			}
			return !lin.Satisfiable() || fn(groups)
		}
		t := terms[i]
		for gi := range groups {
			ng := slices.Clone(groups)
			ng[gi] = append(slices.Clone(groups[gi]), t)
			if !rec(i+1, ng) {
				return false
			}
		}
		for pos := 0; pos <= len(groups); pos++ {
			ng := slices.Insert(slices.Clone(groups), pos, []ast.Term{t})
			if !rec(i+1, ng) {
				return false
			}
		}
		return true
	}
	rec(0, nil)
}

// renderGroups is a linearization as text, e.g. "[X 0] < [Y]".
func renderGroups(groups [][]ast.Term) string {
	var parts []string
	for _, g := range groups {
		parts = append(parts, fmt.Sprint(g))
	}
	return strings.Join(parts, " < ")
}

// collect renders the linearizations fn is handed, stopping after
// limit of them (limit < 0: never).
func collect(enum func([]ast.Term, *Set, func([][]ast.Term) bool), terms []ast.Term, base *Set, limit int) []string {
	var out []string
	enum(terms, base, func(groups [][]ast.Term) bool {
		out = append(out, renderGroups(groups))
		return len(out) != limit
	})
	return out
}

// checkLinearizations decodes a term list (drawn with repetition from
// a pool of variables, numbers, strings and both zeros) and a base over
// it, and checks that Linearizations hands fn exactly the brute force's
// preorders, in its order, and stops where fn says so.
func checkLinearizations(t *testing.T, data []byte) {
	t.Helper()
	r := &byteReader{data: data}
	var terms []ast.Term
	for i, n := 0, 1+r.next()%5; i < n; i++ {
		terms = append(terms, diffPool[r.next()%len(diffPool)])
	}
	base := NewSet()
	for i, m := 0, r.next()%4; i < m; i++ {
		base.Add(r.atom(terms))
	}
	want := collect(bruteLinearizations, terms, base, -1)
	got := collect(Linearizations, terms, base, -1)
	if !slices.Equal(got, want) {
		t.Fatalf("terms %v, base {%s}:\n got %d: %v\nwant %d: %v", terms, base, len(got), got, len(want), want)
	}
	if len(want) > 1 {
		stop := 1 + r.next()%(len(want)-1)
		if got := collect(Linearizations, terms, base, stop); !slices.Equal(got, want[:stop]) {
			t.Fatalf("terms %v, base {%s}, stop after %d: got %v", terms, base, stop, got)
		}
	}
}

func TestLinearizationsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	data := make([]byte, 24)
	for trial := 0; trial < 3000; trial++ {
		rng.Read(data)
		checkLinearizations(t, data)
	}
}
