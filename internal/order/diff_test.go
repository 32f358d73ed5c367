package order

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ast"
)

// The reference solver: the definitions the cached solver must agree
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
		for round := 0; round < 2; round++ { // the second round reads a warm cache
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
// reference before the additions, after an Add that follows queries
// (the cache must be dropped), and on a Clone taken in between (it
// must not see the original's Add, nor the original the clone's).
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
	s := NewSet(atoms...)
	agree(t, s, atoms, queries)

	clone := s.Clone()
	e1, e2 := r.atom(diffPool), r.atom(diffPool)
	s.Add(e1)
	agree(t, s, with(atoms, e1), queries)
	agree(t, clone, atoms, queries)
	clone.Add(e2)
	agree(t, clone, with(atoms, e2), queries)
	agree(t, s, with(atoms, e1), queries)
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
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstReference(t, data) })
}
