package eval

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/ast"
)

// Provenance records, for every derived IDB fact, one rule
// instantiation that produced it — enough to reconstruct a full
// derivation tree for any answer (the ground counterpart of the
// paper's symbolic derivation trees).
type Provenance struct {
	steps map[string]provStep
}

type provStep struct {
	rule ast.Rule   // the instantiated rule (ground)
	body []ast.Atom // ground positive subgoals (EDB and IDB)
}

// Derivation is a node of a ground derivation tree: the derived fact,
// the instantiated rule that produced it, and the sub-derivations of
// its IDB subgoals (EDB leaves have no children and no rule).
type Derivation struct {
	Fact     ast.Atom
	Rule     *ast.Rule // nil for EDB leaves
	Children []*Derivation
}

// EvalProv evaluates like EvalCtx but also returns provenance for the
// derived facts: the step recorded for a fact is the firing that first
// appended it to its relation, materialized from the live binding, so
// it is fixed by the evaluation's task order.
func EvalProv(p *ast.Program, edb *DB) (*DB, *Provenance, *Stats, error) {
	return evalProvOpts(context.Background(), p, edb, DefaultOptions())
}

// evalProvOpts is EvalProv with an explicit context and options. The
// differential tests use it to compare provenance across options.
func evalProvOpts(ctx context.Context, p *ast.Program, edb *DB, opts Options) (*DB, *Provenance, *Stats, error) {
	prov := &Provenance{steps: map[string]provStep{}}
	ev, err := evalCompiled(ctx, p, edb, opts, prov)
	if err != nil {
		return nil, nil, nil, err
	}
	return ev.publicIDB(), prov, ev.stats, nil
}

// Tree reconstructs the derivation tree for a ground IDB fact. EDB
// facts yield leaves. It returns an error if the fact was never
// derived (or present).
func (pv *Provenance) Tree(fact ast.Atom, idbPreds map[string]bool, edb *DB) (*Derivation, error) {
	if !fact.Ground() {
		return nil, fmt.Errorf("eval: provenance requires a ground fact, got %s", fact)
	}
	if !idbPreds[fact.Pred] {
		if edb.Contains(fact) {
			return &Derivation{Fact: fact}, nil
		}
		return nil, fmt.Errorf("eval: EDB fact %s is not in the database", fact)
	}
	step, ok := pv.steps[fact.Key()]
	if !ok {
		return nil, fmt.Errorf("eval: no derivation recorded for %s", fact)
	}
	rule := step.rule
	node := &Derivation{Fact: fact, Rule: &rule}
	for _, sub := range step.body {
		child, err := pv.Tree(sub, idbPreds, edb)
		if err != nil {
			return nil, err
		}
		node.Children = append(node.Children, child)
	}
	return node, nil
}

// String renders the derivation tree as indented text.
func (d *Derivation) String() string {
	var b strings.Builder
	d.render(&b, 0)
	return b.String()
}

func (d *Derivation) render(b *strings.Builder, depth int) {
	ind := strings.Repeat("  ", depth)
	if d.Rule == nil {
		fmt.Fprintf(b, "%s%s  [EDB]\n", ind, d.Fact)
		return
	}
	fmt.Fprintf(b, "%s%s  [via %s]\n", ind, d.Fact, d.Rule)
	for _, c := range d.Children {
		c.render(b, depth+1)
	}
}

// Size counts the nodes of the derivation tree.
func (d *Derivation) Size() int {
	n := 1
	for _, c := range d.Children {
		n += c.Size()
	}
	return n
}

// Depth returns the height of the derivation tree (a leaf has depth 1).
func (d *Derivation) Depth() int {
	max := 0
	for _, c := range d.Children {
		if dd := c.Depth(); dd > max {
			max = dd
		}
	}
	return max + 1
}
