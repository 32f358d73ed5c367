package rewrite

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/ast"
	"repro/internal/order"
	"repro/internal/unify"
)

// PushOrder performs top-down order-constraint propagation — the
// selection-pushing pass of [LS92, LMSS93] that the paper assumes has
// been applied before its algorithm runs. Starting from the query
// predicate with an empty constraint context, every IDB subgoal
// occurrence is specialized by the strongest context on its arguments
// that the enclosing rule body implies, the context is added to the
// specialized predicate's rules, and the process repeats until no new
// (predicate, context) pairs appear. Rules whose constraints become
// unsatisfiable vanish.
//
// The pass is an equivalence transformation for the query predicate:
// each specialized predicate computes exactly the tuples of the
// original that can participate under its calling context.
//
// Contexts are drawn from a finite candidate vocabulary (comparisons
// among argument positions and against the constants appearing in the
// program), so the specialization terminates.
func PushOrder(p *ast.Program) (*ast.Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Query == "" {
		return nil, fmt.Errorf("rewrite: PushOrder requires a query predicate")
	}
	idb := p.IDB()
	ar, err := p.PredArity()
	if err != nil {
		return nil, err
	}
	consts := collectConstants(p)

	// vocabulary returns the context vocabulary for an n-ary predicate,
	// over canonical argument variables A0..A(n-1), in canonical
	// (deduplicated, key-sorted) order — so the implied subset of it is
	// a canonical context as it stands. Built once per arity.
	vocab := map[int][]vocabAtom{}
	vocabulary := func(n int) []vocabAtom {
		v, ok := vocab[n]
		if !ok {
			for _, c := range canonCtx(candidateCmps(n, consts)) {
				v = append(v, newVocabAtom(c))
			}
			vocab[n] = v
		}
		return v
	}

	type classKey struct {
		pred string
		ctx  string
	}
	names := map[classKey]string{}
	ctxCmps := map[string][]ast.Cmp{} // specialized name -> context atoms (over A_i)
	counter := map[string]int{}
	var queue []string
	base := map[string]string{}

	intern := func(key classKey, ctx []ast.Cmp) string {
		pred := key.pred
		if n, ok := names[key]; ok {
			return n
		}
		var name string
		if counter[pred] == 0 && len(ctx) == 0 {
			name = pred // empty root context keeps the original name
		} else {
			name = fmt.Sprintf("%s_c%d", pred, counter[pred])
		}
		counter[pred]++
		names[key] = name
		ctxCmps[name] = ctx
		base[name] = pred
		queue = append(queue, name)
		return name
	}

	// contextUseful's verdict per (predicate, context), and the closed
	// order atoms of each predicate's rules, built on first use.
	useful := map[classKey]bool{}
	own := map[string][]*order.Set{}
	isUseful := func(key classKey, ctx []ast.Cmp) bool {
		u, ok := useful[key]
		if !ok {
			rules := p.RulesFor(key.pred)
			if own[key.pred] == nil {
				for _, r := range rules {
					own[key.pred] = append(own[key.pred], order.NewSet(r.Cmp...))
				}
			}
			u = contextUseful(rules, own[key.pred], idb, ctx, vocabulary, ar)
			useful[key] = u
		}
		return u
	}

	out := &ast.Program{}
	out.Query = intern(classKey{p.Query, ""}, nil)

	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		pred := base[name]
		ctx := ctxCmps[name]
		for _, r := range p.RulesFor(pred) {
			nr := r.Clone()
			nr.Head.Pred = name
			// Instantiate the context on the head arguments and add it
			// to the body.
			s := argSubst(nr.Head.Args)
			bodySet := order.NewSet(nr.Cmp...)
			for _, c := range ctx {
				// Safety guarantees head variables occur in the body,
				// so the instantiated atom is always groundable.
				inst := s.ApplyCmp(c)
				if !bodySet.Implies(inst) {
					nr.Cmp = append(nr.Cmp, inst)
					bodySet.Add(inst)
				}
			}
			norm, ok := NormalizeRule(nr)
			if !ok {
				continue
			}
			// Specialize IDB subgoals by their implied contexts — but
			// only when pushing pays: a context that neither kills a
			// rule of the callee nor survives into one of the callee's
			// own IDB subgoals would merely add a duplicate layer over
			// the unspecialized predicate (the classic magic-set
			// duplication hazard), so it stays at the call site.
			fullSet := order.NewSet(norm.Cmp...)
			for j, sub := range norm.Pos {
				if !idb[sub.Pred] {
					continue
				}
				var child []ast.Cmp
				for _, v := range vocabulary(ar[sub.Pred]) {
					if fullSet.Implies(v.on(sub.Args)) {
						child = append(child, v.c)
					}
				}
				key := classKey{sub.Pred, ast.CmpsKey(child)}
				if len(child) > 0 && !isUseful(key, child) {
					child, key = nil, classKey{sub.Pred, ""}
				}
				norm.Pos[j].Pred = intern(key, child)
			}
			out.Rules = append(out.Rules, norm)
		}
	}
	return out, nil
}

// contextUseful is the one-step lookahead for PushOrder: pushing ctx
// into a predicate with the given rules (and own[i], the closed order
// atoms of rules[i]) pays iff, instantiating the context on each rule,
// some rule becomes unsatisfiable (dropped) or the context induces a
// non-empty context on some IDB subgoal (i.e. it survives a recursion
// step). The subgoals are read as NormalizeRule would leave them, with
// the forced equalities substituted; their implied atoms are read off
// the unnormalized set, which implies the same atoms over the terms
// that survive the substitution.
func contextUseful(rules []ast.Rule, own []*order.Set, idb map[string]bool, ctx []ast.Cmp,
	vocabulary func(int) []vocabAtom, ar map[string]int) bool {
	for i, r := range rules {
		set := own[i].Clone()
		s := argSubst(r.Head.Args)
		for _, c := range ctx {
			set.Add(s.ApplyCmp(c))
		}
		if !set.Satisfiable() {
			return true // the context kills this rule outright
		}
		eqs := unify.Subst(set.ForcedEqualities())
		for _, sub := range r.Pos {
			if !idb[sub.Pred] {
				continue
			}
			args := eqs.ApplyAtom(sub).Args
			for _, v := range vocabulary(ar[sub.Pred]) {
				inst := v.on(args)
				// Count only constraints the context contributed, not
				// ones the rule body implies on its own.
				if set.Implies(inst) && !own[i].Implies(inst) {
					return true
				}
			}
		}
	}
	return false
}

// vocabAtom is a context-vocabulary atom over A0..A(n-1) with its
// operands resolved to argument positions (r < 0: the right operand is
// the constant c.Right), so instantiating it is two slice reads.
type vocabAtom struct {
	c    ast.Cmp
	l, r int
}

func newVocabAtom(c ast.Cmp) vocabAtom {
	pos := func(t ast.Term) int {
		if t.IsConst() {
			return -1
		}
		i, _ := strconv.Atoi(t.Name[1:])
		return i
	}
	return vocabAtom{c, pos(c.Left), pos(c.Right)}
}

// on instantiates the atom on an atom's argument terms.
func (v vocabAtom) on(args []ast.Term) ast.Cmp {
	inst := v.c
	inst.Left = args[v.l]
	if v.r >= 0 {
		inst.Right = args[v.r]
	}
	return inst
}

// canonCtx deduplicates context atoms by key (the first of two atoms
// sharing one stays) and sorts them by it.
func canonCtx(ctx []ast.Cmp) []ast.Cmp {
	byKey := map[string]ast.Cmp{}
	var keys []string
	for _, c := range ctx {
		k := c.Key()
		if _, dup := byKey[k]; !dup {
			byKey[k] = c
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []ast.Cmp
	for _, k := range keys {
		out = append(out, byKey[k])
	}
	return out
}
