// Package refeval is the reference semantics internal/eval is tested
// against: the least fixpoint by naive bottom-up iteration, every rule
// re-derived by a nested-loop join over whole relations until nothing is
// new. No indexes, deltas, plans or tasks, nothing shared with the
// engine; meant for EDBs of at most a few hundred facts. As in the
// engine, a predicate with rules holds derived tuples only (facts given
// for it are ignored) and only the other predicates may be negated.
package refeval

import (
	"maps"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ast"
)

// db maps predicate names to sets of tuples keyed by tupleKey.
type db map[string]map[string][]ast.Term

func (d db) insert(pred string, args []ast.Term) bool {
	if d[pred] == nil {
		d[pred] = map[string][]ast.Term{}
	}
	k := tupleKey(args)
	if _, ok := d[pred][k]; ok {
		return false
	}
	d[pred][k] = args
	return true
}

// tupleKey quotes each term key, so no two tuples share one.
func tupleKey(args []ast.Term) string {
	var b strings.Builder
	for _, t := range args {
		b.WriteString(strconv.Quote(t.Key()))
	}
	return b.String()
}

// Eval returns the least fixpoint of p over facts: every IDB predicate
// (also one that derives nothing) mapped to its facts, rendered, sorted.
func Eval(p *ast.Program, facts []ast.Atom) map[string][]string {
	d, out := fixpoint(p, facts), map[string][]string{}
	for pred := range p.IDB() {
		out[pred] = render(pred, d[pred], nil)
	}
	return out
}

// Answers returns the query predicate's derived facts that match p's
// goal (all of them when p has none; none when it has no rules).
func Answers(p *ast.Program, facts []ast.Atom) []string {
	if !p.IDB()[p.Query] {
		return []string{}
	}
	return render(p.Query, fixpoint(p, facts)[p.Query], p.MatchesGoal)
}

func render(pred string, rel map[string][]ast.Term, keep func([]ast.Term) bool) []string {
	out := []string{}
	for _, args := range rel {
		if keep == nil || keep(args) {
			out = append(out, ast.Atom{Pred: pred, Args: args}.String())
		}
	}
	sort.Strings(out)
	return out
}

func fixpoint(p *ast.Program, facts []ast.Atom) db {
	d, idb := db{}, p.IDB()
	for _, f := range facts {
		if !idb[f.Pred] {
			d.insert(f.Pred, f.Args)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, r := range p.Rules {
			for _, head := range join(r, 0, map[string]ast.Term{}, d) {
				if d.insert(r.Head.Pred, head) {
					changed = true
				}
			}
		}
	}
	return d
}

func substitute(args []ast.Term, b map[string]ast.Term) []ast.Term {
	out := make([]ast.Term, len(args))
	for i, t := range args {
		if t.IsVar() {
			t = b[t.Name]
		}
		out[i] = t
	}
	return out
}

// join returns the head tuple of every instantiation of r that extends
// binding b over r.Pos[i:] and passes the negated and order atoms.
func join(r ast.Rule, i int, b map[string]ast.Term, d db) [][]ast.Term {
	if i == len(r.Pos) {
		for _, n := range r.Neg {
			if _, ok := d[n.Pred][tupleKey(substitute(n.Args, b))]; ok {
				return nil
			}
		}
		for _, c := range r.Cmp {
			lr := substitute([]ast.Term{c.Left, c.Right}, b)
			if !ast.NewCmp(lr[0], c.Op, lr[1]).Eval() {
				return nil
			}
		}
		return [][]ast.Term{substitute(r.Head.Args, b)}
	}
	var heads [][]ast.Term
	for _, tuple := range d[r.Pos[i].Pred] {
		if nb, ok := match(r.Pos[i].Args, tuple, b); ok {
			heads = append(heads, join(r, i+1, nb, d)...)
		}
	}
	return heads
}

// match returns a copy of b extended so that args equal tuple, if any.
func match(args, tuple []ast.Term, b map[string]ast.Term) (map[string]ast.Term, bool) {
	if len(args) != len(tuple) {
		return nil, false
	}
	nb := maps.Clone(b)
	for j, t := range args {
		if t.IsVar() {
			v, ok := nb[t.Name]
			if !ok {
				nb[t.Name] = tuple[j]
				continue
			}
			t = v
		}
		if !t.Equal(tuple[j]) {
			return nil, false
		}
	}
	return nb, true
}
