package rewrite

import (
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/order"
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
	vocab := map[int][]ast.Cmp{}
	vocabulary := func(n int) []ast.Cmp {
		v, ok := vocab[n]
		if !ok {
			v = canonCtx(candidateCmps(n, consts))
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

	intern := func(pred string, ctx []ast.Cmp) string {
		key := classKey{pred, ast.CmpsKey(ctx)}
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

	out := &ast.Program{}
	out.Query = intern(p.Query, nil)

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
				ss := argSubst(sub.Args)
				for _, c := range vocabulary(ar[sub.Pred]) {
					if fullSet.Implies(ss.ApplyCmp(c)) {
						child = append(child, c)
					}
				}
				if len(child) > 0 && !contextUseful(p, idb, sub.Pred, child, vocabulary, ar) {
					child = nil
				}
				norm.Pos[j].Pred = intern(sub.Pred, child)
			}
			out.Rules = append(out.Rules, norm)
		}
	}
	return out, nil
}

// contextUseful is the one-step lookahead for PushOrder: pushing ctx
// into pred pays iff, instantiating the context on each of pred's
// rules, some rule becomes unsatisfiable (dropped) or the context
// induces a non-empty context on some IDB subgoal (i.e. it survives a
// recursion step).
func contextUseful(p *ast.Program, idb map[string]bool, pred string, ctx []ast.Cmp,
	vocabulary func(int) []ast.Cmp, ar map[string]int) bool {
	for _, r := range p.RulesFor(pred) {
		nr := r.Clone()
		s := argSubst(nr.Head.Args)
		for _, c := range ctx {
			nr.Cmp = append(nr.Cmp, s.ApplyCmp(c))
		}
		norm, ok := NormalizeRule(nr)
		if !ok {
			return true // the context kills this rule outright
		}
		set, own := order.NewSet(norm.Cmp...), order.NewSet(r.Cmp...)
		for _, sub := range norm.Pos {
			if !idb[sub.Pred] {
				continue
			}
			ss := argSubst(sub.Args)
			for _, c := range vocabulary(ar[sub.Pred]) {
				inst := ss.ApplyCmp(c)
				// Count only constraints the context contributed, not
				// ones the rule body implies on its own.
				if set.Implies(inst) && !own.Implies(inst) {
					return true
				}
			}
		}
	}
	return false
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
