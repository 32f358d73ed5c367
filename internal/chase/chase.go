// Package chase implements a budget-bounded (disjunctive) chase for
// integrity constraints with negated EDB atoms, the semi-decision
// procedure behind the {¬}-ic satisfiability questions of Section 5.
//
// A denial constraint with negated atoms, :- p1,...,pm, !n1,...,!nk,
// is logically p1 ∧ ... ∧ pm → n1 ∨ ... ∨ nk. A database violating it
// can be repaired by ADDING one of the n_i facts, so consistency of a
// finite fact set is established by chasing: repeatedly find a
// violation and repair it. With k = 0 a violation is fatal; with k = 1
// the repair is deterministic; with k > 1 the chase branches. The
// chase may diverge (Theorem 5.4 shows the underlying question is
// undecidable), hence the explicit step budget and the three-valued
// result.
package chase

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/ast"

	"repro/internal/unify"
)

// Verdict is the three-valued outcome of a bounded chase.
type Verdict int

const (
	// Unknown means the step budget was exhausted before the chase
	// terminated.
	Unknown Verdict = iota
	// Consistent means a finite model extending the input facts and
	// satisfying every constraint was constructed.
	Consistent
	// Inconsistent means every chase branch reached a hard violation.
	Inconsistent
)

func (v Verdict) String() string {
	switch v {
	case Consistent:
		return "consistent"
	case Inconsistent:
		return "inconsistent"
	default:
		return "unknown"
	}
}

// Result carries the verdict and, when consistent, the constructed
// model.
type Result struct {
	Verdict Verdict
	// Model holds the chased fact set for a consistent branch.
	Model []ast.Atom
	// Steps is the total number of chase steps taken across branches.
	Steps int
}

// Options bounds the chase.
type Options struct {
	// MaxSteps bounds the total number of repair steps across all
	// branches (default 10000).
	MaxSteps int
	// Forbidden lists ground atoms that must never be added (used to
	// respect negated atoms of a query body); adding one fails the
	// branch.
	Forbidden []ast.Atom
}

// RunCtx chases the given ground facts against the constraints.
// Cancellation or deadline expiry of ctx stops the chase at the next
// step boundary with an Unknown verdict — the same honest "budget
// exhausted" outcome as running out of MaxSteps, since an interrupted
// semi-decision procedure has not decided anything.
func RunCtx(ctx context.Context, facts []ast.Atom, ics []ast.IC, opts Options) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 10000
	}
	for _, f := range facts {
		if !f.Ground() {
			panic("chase: non-ground fact " + f.String())
		}
	}
	forbidden := map[string]bool{}
	for _, f := range opts.Forbidden {
		forbidden[f.Key()] = true
	}
	c := &chaser{ctx: ctx, ics: ics, budget: opts.MaxSteps, forbidden: forbidden}
	db := map[string]ast.Atom{}
	for _, f := range facts {
		db[f.Key()] = f
	}
	verdict, model := c.chase(db)
	res := Result{Verdict: verdict, Steps: c.steps}
	if verdict == Consistent {
		res.Model = model
	}
	return res
}

type chaser struct {
	ctx       context.Context
	ics       []ast.IC
	budget    int
	steps     int
	forbidden map[string]bool
	exhausted bool
}

// chase returns the verdict for the given database (branching over
// disjunctive repairs).
func (c *chaser) chase(db map[string]ast.Atom) (Verdict, []ast.Atom) {
	for {
		if c.steps >= c.budget || (c.ctx != nil && c.ctx.Err() != nil) {
			c.exhausted = true
			return Unknown, nil
		}
		v, ok := c.findViolation(db)
		if !ok {
			return Consistent, dbAtoms(db)
		}
		c.steps++
		if len(v.repairs) == 0 {
			return Inconsistent, nil
		}
		if len(v.repairs) == 1 {
			a := v.repairs[0]
			if c.forbidden[a.Key()] {
				return Inconsistent, nil
			}
			db[a.Key()] = a
			continue
		}
		// Disjunctive repair: branch on a copy per alternative.
		sawUnknown := false
		for _, a := range v.repairs {
			if c.forbidden[a.Key()] {
				continue
			}
			branch := make(map[string]ast.Atom, len(db)+1)
			for k, f := range db {
				branch[k] = f
			}
			branch[a.Key()] = a
			verdict, model := c.chase(branch)
			switch verdict {
			case Consistent:
				return Consistent, model
			case Unknown:
				sawUnknown = true
			}
		}
		if sawUnknown {
			return Unknown, nil
		}
		return Inconsistent, nil
	}
}

type violation struct {
	repairs []ast.Atom // adding any one of these repairs the violation
}

// findViolation looks for a constraint whose positive atoms map into
// the database with order atoms satisfied and every repair option
// absent. It prefers deterministic (0- or 1-repair) violations to keep
// branching low.
func (c *chaser) findViolation(db map[string]ast.Atom) (violation, bool) {
	atoms := dbAtoms(db)
	var pending *violation
	var key []byte
	for _, ic := range c.ics {
		found := false
		var result violation
		unify.Homomorphisms(ic.Pos, atoms, func(h unify.Subst) bool {
			// Order atoms must be satisfied by the ground instance.
			for _, cm := range ic.Cmp {
				g := h.ApplyCmp(cm)
				if g.Left.IsVar() || g.Right.IsVar() || !g.Eval() {
					return true // not a violation under this mapping
				}
			}
			var repairs []ast.Atom
			for _, n := range ic.Neg {
				g := h.ApplyAtom(n)
				if !g.Ground() {
					return true // unsafely quantified; cannot judge
				}
				key = g.AppendKey(key[:0])
				if _, present := db[string(key)]; present {
					return true // some disjunct already satisfied
				}
				repairs = append(repairs, g)
			}
			result = violation{repairs: repairs}
			found = true
			// Stop immediately on fatal or deterministic violations.
			return len(repairs) > 1
		})
		if found {
			if len(result.repairs) <= 1 {
				return result, true
			}
			if pending == nil {
				v := result
				pending = &v
			}
		}
	}
	if pending != nil {
		return *pending, true
	}
	return violation{}, false
}

// dbAtoms returns the database in sorted key order so that violation
// search — and therefore branching order and the verdict under a tight
// budget — is deterministic across runs.
func dbAtoms(db map[string]ast.Atom) []ast.Atom {
	keys := make([]string, 0, len(db))
	for k := range db {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]ast.Atom, 0, len(db))
	for _, k := range keys {
		out = append(out, db[k])
	}
	return out
}

// IsConsistent reports whether the ground fact set satisfies the
// constraints as-is (no chasing): no constraint body maps into it.
func IsConsistent(facts []ast.Atom, ics []ast.IC) (bool, error) {
	for _, f := range facts {
		if !f.Ground() {
			return false, fmt.Errorf("chase: non-ground fact %s", f)
		}
	}
	db := map[string]ast.Atom{}
	for _, f := range facts {
		db[f.Key()] = f
	}
	c := &chaser{ics: ics, budget: 1}
	_, violated := c.findViolation(db)
	return !violated, nil
}
