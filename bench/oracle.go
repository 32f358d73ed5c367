package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ast"
)

// The oracle: every expected answer in the benchmark comes from this
// file, never from internal/eval. Reachability uses a breadth-first
// search over an adjacency map, the bounded "trendy" program has a
// closed form, and arbitrary small programs (optimize-cold's
// equivalence check) go through naiveEval, a textbook nested-loop
// fixpoint over the AST with no indexes, no deltas and no plans.

// pair is a binary answer tuple over integer constants.
type pair [2]int

// graph is a mutable directed graph with set semantics on edges.
type graph map[int][]int

func (g graph) has(x, y int) bool {
	for _, v := range g[x] {
		if v == y {
			return true
		}
	}
	return false
}

// add inserts the edge and reports whether it was new.
func (g graph) add(x, y int) bool {
	if g.has(x, y) {
		return false
	}
	g[x] = append(g[x], y)
	return true
}

// remove deletes the edge and reports whether it was present.
func (g graph) remove(x, y int) bool {
	vs := g[x]
	for i, v := range vs {
		if v == y {
			g[x] = append(vs[:i:i], vs[i+1:]...)
			return true
		}
	}
	return false
}

// reach returns the nodes reachable from src by one or more edges,
// ascending.
func (g graph) reach(src int) []int {
	seen := map[int]bool{}
	queue := append([]int(nil), g[src]...)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if seen[n] {
			continue
		}
		seen[n] = true
		queue = append(queue, g[n]...)
	}
	out := make([]int, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// closure returns the transitive closure restricted to sources that
// pass keep (nil keeps all), as a set of pairs.
func (g graph) closure(keep func(int) bool) map[pair]bool {
	out := map[pair]bool{}
	for x := range g {
		if keep != nil && !keep(x) {
			continue
		}
		for _, y := range g.reach(x) {
			out[pair{x, y}] = true
		}
	}
	return out
}

// graphOf builds a graph from binary facts of the named predicates.
func graphOf(facts []ast.Atom, preds ...string) graph {
	g := graph{}
	for _, f := range facts {
		for _, p := range preds {
			if f.Pred == p && len(f.Args) == 2 {
				g.add(int(f.Args[0].Val), int(f.Args[1].Val))
			}
		}
	}
	return g
}

// renderPair renders a pair the way eval.Tuple.String does.
func renderPair(p pair) string {
	return "(" + strconv.Itoa(p[0]) + ", " + strconv.Itoa(p[1]) + ")"
}

// parsePair parses "(x, y)"; ok is false for anything else.
func parsePair(s string) (pair, bool) {
	if len(s) < 6 || s[0] != '(' || s[len(s)-1] != ')' {
		return pair{}, false
	}
	xs, ys, found := strings.Cut(s[1:len(s)-1], ", ")
	if !found {
		return pair{}, false
	}
	x, err1 := strconv.Atoi(xs)
	y, err2 := strconv.Atoi(ys)
	return pair{x, y}, err1 == nil && err2 == nil
}

// digest identifies an answer set: the tuple count, an
// order-independent 64-bit multiset hash (cheap enough to check after
// every operation), and the SHA-256 of the sorted rendered tuples
// (checked once per program per run).
type digest struct {
	count int
	sum   uint64
	sha   string
}

func hashTuple(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// digestOf computes the digest of rendered tuples; it sorts in place.
func digestOf(tuples []string, withSHA bool) digest {
	d := digest{count: len(tuples)}
	for _, t := range tuples {
		d.sum += hashTuple(t)
	}
	if withSHA {
		sort.Strings(tuples)
		h := sha256.New()
		for _, t := range tuples {
			h.Write([]byte(t))
			h.Write([]byte{'\n'})
		}
		d.sha = hex.EncodeToString(h.Sum(nil))
	}
	return d
}

func renderPairs(set map[pair]bool) []string {
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, renderPair(p))
	}
	return out
}

// trendyClosedForm is the fixpoint of
//
//	buys(X, Y) :- likes(X, Y).
//	buys(X, Y) :- trendy(X), buys(Z, Y).
//
// without evaluating it: every trendy person buys every liked item,
// and everyone buys what they like.
func trendyClosedForm(facts []ast.Atom) []string {
	set := map[pair]bool{}
	var items, trendy []int
	for _, f := range facts {
		switch f.Pred {
		case "likes":
			set[pair{int(f.Args[0].Val), int(f.Args[1].Val)}] = true
			items = append(items, int(f.Args[1].Val))
		case "trendy":
			trendy = append(trendy, int(f.Args[0].Val))
		}
	}
	for _, x := range trendy {
		for _, y := range items {
			set[pair{x, y}] = true
		}
	}
	return renderPairs(set)
}

// naiveEval computes the query relation of p over facts by naive
// bottom-up iteration: every round re-derives every rule by a
// nested-loop join over the current relations until nothing is new.
// Exponential in body size and quadratic in everything else — meant
// for EDBs of a few dozen facts. Negated subgoals read the EDB only
// (the language negates EDB predicates only). The result is restricted
// to the program's goal and rendered like eval.Tuple.String.
func naiveEval(p *ast.Program, facts []ast.Atom) []string {
	rel := map[string]map[string][]ast.Term{}
	insert := func(pred string, args []ast.Term) bool {
		if rel[pred] == nil {
			rel[pred] = map[string][]ast.Term{}
		}
		k := tupleKey(args)
		if _, ok := rel[pred][k]; ok {
			return false
		}
		rel[pred][k] = args
		return true
	}
	for _, f := range facts {
		insert(f.Pred, f.Args)
	}
	for changed := true; changed; {
		changed = false
		for _, r := range p.Rules {
			var derived [][]ast.Term
			joinNaive(r, 0, map[string]ast.Term{}, rel, func(b map[string]ast.Term) {
				head := make([]ast.Term, len(r.Head.Args))
				for i, t := range r.Head.Args {
					head[i] = substitute(t, b)
				}
				derived = append(derived, head)
			})
			for _, h := range derived {
				if insert(r.Head.Pred, h) {
					changed = true
				}
			}
		}
	}
	var out []string
	for _, args := range rel[p.Query] {
		if p.MatchesGoal(args) {
			parts := make([]string, len(args))
			for i, t := range args {
				parts[i] = t.String()
			}
			out = append(out, "("+strings.Join(parts, ", ")+")")
		}
	}
	sort.Strings(out)
	return out
}

func tupleKey(args []ast.Term) string {
	var b strings.Builder
	for _, t := range args {
		b.WriteString(t.Key())
		b.WriteByte(1)
	}
	return b.String()
}

func substitute(t ast.Term, b map[string]ast.Term) ast.Term {
	if t.IsVar() {
		return b[t.Name]
	}
	return t
}

// joinNaive extends binding b over r.Pos[i:], then filters by the
// negated and comparison atoms, calling emit for each full match.
func joinNaive(r ast.Rule, i int, b map[string]ast.Term, rel map[string]map[string][]ast.Term, emit func(map[string]ast.Term)) {
	if i == len(r.Pos) {
		for _, n := range r.Neg {
			args := make([]ast.Term, len(n.Args))
			for j, t := range n.Args {
				args[j] = substitute(t, b)
			}
			if _, ok := rel[n.Pred][tupleKey(args)]; ok {
				return
			}
		}
		for _, c := range r.Cmp {
			if !(ast.Cmp{Op: c.Op, Left: substitute(c.Left, b), Right: substitute(c.Right, b)}).Eval() {
				return
			}
		}
		emit(b)
		return
	}
	atom := r.Pos[i]
next:
	for _, tuple := range rel[atom.Pred] {
		if len(tuple) != len(atom.Args) {
			continue
		}
		var bound []string
		for j, t := range atom.Args {
			want := t
			if t.IsVar() {
				v, ok := b[t.Name]
				if !ok {
					b[t.Name] = tuple[j]
					bound = append(bound, t.Name)
					continue
				}
				want = v
			}
			if !want.Equal(tuple[j]) {
				for _, name := range bound {
					delete(b, name)
				}
				continue next
			}
		}
		joinNaive(r, i+1, b, rel, emit)
		for _, name := range bound {
			delete(b, name)
		}
	}
}

// canonicalRules renders a program's rules with variables renamed by
// first occurrence (A0, A1, ...) and the rules sorted, so a textual pin
// survives changes in how the optimizer names fresh variables but not
// changes in what it derives.
func canonicalRules(p *ast.Program) []string {
	out := make([]string, 0, len(p.Rules))
	for _, r := range p.Rules {
		names := map[string]string{}
		ren := func(t ast.Term) ast.Term {
			if !t.IsVar() {
				return t
			}
			if _, ok := names[t.Name]; !ok {
				names[t.Name] = fmt.Sprintf("A%d", len(names))
			}
			return ast.V(names[t.Name])
		}
		renAtom := func(a ast.Atom) ast.Atom {
			out := ast.Atom{Pred: a.Pred, Args: make([]ast.Term, len(a.Args))}
			for i, t := range a.Args {
				out.Args[i] = ren(t)
			}
			return out
		}
		c := ast.Rule{Head: renAtom(r.Head)}
		for _, a := range r.Pos {
			c.Pos = append(c.Pos, renAtom(a))
		}
		for _, a := range r.Neg {
			c.Neg = append(c.Neg, renAtom(a))
		}
		for _, cm := range r.Cmp {
			c.Cmp = append(c.Cmp, ast.Cmp{Op: cm.Op, Left: ren(cm.Left), Right: ren(cm.Right)})
		}
		out = append(out, c.String())
	}
	sort.Strings(out)
	return out
}
