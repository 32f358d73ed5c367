// Package adorn implements the bottom-up phase of the query-tree
// algorithm of Section 4.1: the computation of adornments — sets of
// triplets (I, σ, s) recording the partial mappings of integrity
// constraints into symbolic derivation subtrees — and the adorned rule
// set P1 with full provenance for the top-down phase (package qtree).
package adorn

import (
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/unify"
)

// SpecProgram is a pattern-specialized program: every IDB predicate is
// split per usage pattern (equalities among arguments and embedded
// constants), so that adornments attach to (predicate, pattern) pairs.
// The paper's footnote 1 ("during the construction of t some variables
// of the root may be equated") is realized here once, up front.
type SpecProgram struct {
	// Prog holds the specialized rules; IDB predicate names are of the
	// form base#k.
	Prog *ast.Program
	// Base maps a specialized predicate to its original name.
	Base map[string]string
	// Pattern maps a specialized predicate to its canonical goal atom
	// (variables V0, V1, ... with the pattern's equalities/constants).
	Pattern map[string]ast.Atom
	// Query is the specialized query predicate (all-distinct pattern).
	Query string
}

// Specialize splits the program's IDB predicates by usage pattern,
// starting from the query predicate with an all-distinct goal pattern.
// Rules whose heads do not unify with a pattern in which they are used
// are dropped for that pattern.
func Specialize(p *ast.Program) (*SpecProgram, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Query == "" {
		return nil, fmt.Errorf("adorn: program has no query predicate")
	}
	idb := p.IDB()
	ar, err := p.PredArity()
	if err != nil {
		return nil, err
	}

	sp := &SpecProgram{
		Prog:    &ast.Program{},
		Base:    map[string]string{},
		Pattern: map[string]ast.Atom{},
	}
	// Registry: base pred + pattern key -> specialized name.
	reg := map[string]string{}
	counter := map[string]int{}
	var queue []string // specialized names whose rules are not yet built

	intern := func(pred string, pattern ast.Atom) string {
		key := pred + "\x00" + pattern.PatternKey()
		if name, ok := reg[key]; ok {
			return name
		}
		name := fmt.Sprintf("%s_s%d", pred, counter[pred])
		counter[pred]++
		reg[key] = name
		sp.Base[name] = pred
		sp.Pattern[name] = pattern
		queue = append(queue, name)
		return name
	}

	// Root pattern: all-distinct variables.
	rootArgs := make([]ast.Term, ar[p.Query])
	for i := range rootArgs {
		rootArgs[i] = ast.V(fmt.Sprintf("V%d", i))
	}
	sp.Query = intern(p.Query, ast.NewAtom(p.Query, rootArgs...))

	ren := ast.NewRenamer()
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		base := sp.Base[name]
		pattern := sp.Pattern[name]
		ren.Avoid(pattern.Vars(nil)...)
		for _, r := range p.RulesFor(base) {
			// Rename the rule apart from the pattern.
			rr := ast.RenameRule(r, ren.Next(r.Vars()))
			s, ok := unify.Unify(rr.Head, pattern, nil)
			if !ok {
				continue // rule cannot produce this pattern
			}
			inst := s.ApplyRule(rr)
			// Rebuild with specialized predicate names for IDB subgoals
			// (inst is a fresh copy: its atoms are ours to rename).
			nr := ast.Rule{Head: inst.Head, Pos: inst.Pos, Neg: inst.Neg, Cmp: inst.Cmp}
			nr.Head.Pred = name
			for j, sub := range nr.Pos {
				if idb[sub.Pred] {
					canon, _ := ast.CanonicalizeAtom(sub)
					nr.Pos[j].Pred = intern(sub.Pred, canon)
				}
			}
			sp.Prog.Rules = append(sp.Prog.Rules, nr)
		}
	}
	sp.Prog.Query = sp.Query
	return sp, nil
}

// SortedSpecPreds returns the specialized predicate names, sorted.
func (sp *SpecProgram) SortedSpecPreds() []string {
	out := make([]string, 0, len(sp.Base))
	for name := range sp.Base {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
