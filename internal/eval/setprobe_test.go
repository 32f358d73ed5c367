package eval

import (
	"context"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// A subgoal probed with every position bound reads the relation's dedup
// set, not an index (join.go). The programs below are run twice: as
// written, where short's edge and mark subgoals are fully bound after
// path binds X and Y (in the fixpoint's delta passes and in the
// head-bound Derivable plan alike), and padded — edgeP and markP carry
// each row with an extra 0 column nothing binds, so the same probes go
// through an index chain of one row per key. The padded program is the
// index path's count: the two must probe exactly alike, and the
// unpadded one must build no full-key index on any relation.
const setProbeSrc = `
	path(X, Y) :- edge(X, Y).
	path(X, Y) :- path(X, Z), edge(Z, Y).
	short(X, Y) :- path(X, Y), edge(X, Y), mark(Y).
	?- short.`

const setProbePaddedSrc = `
	path(X, Y) :- edge(X, Y).
	path(X, Y) :- path(X, Z), edge(Z, Y).
	short(X, Y) :- path(X, Y), edgeP(X, Y, W), markP(Y, V).
	?- short.`

// setProbeRels interns the test's EDB — a 12-node chain, a shortcut
// from every third node, a mark on every even one — and, padded, the
// same rows of edgeP and markP, then runs the fixpoint over them.
func setProbeRels(t *testing.T, src string) (*DeltaProgram, map[string]*IRel, *Stats) {
	t.Helper()
	p := parser.MustParseProgram(src)
	dp, err := CompileDeltaProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	rels := map[string]*IRel{}
	add := func(pred string, args ...int) {
		if _, ok := dp.PredArity(pred); !ok {
			return // the other program's relation
		}
		terms := make([]ast.Term, len(args))
		for i, a := range args {
			terms[i] = ast.N(float64(a))
		}
		row, err := dp.InternFact(pred, terms, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rels[pred] == nil {
			rels[pred] = dp.NewIRel(len(row))
		}
		rels[pred].Add(row)
	}
	for i := 1; i < 12; i++ {
		add("edge", i, i+1)
		add("edgeP", i, i+1, 0)
		if i%3 == 0 {
			add("edge", i, i+2)
			add("edgeP", i, i+2, 0)
		}
		if i%2 == 0 {
			add("mark", i)
			add("markP", i, 0)
		}
	}
	for pred := range p.IDB() {
		arity, _ := dp.PredArity(pred)
		rels[pred] = dp.NewIRel(arity)
	}
	dp.OrderJoins(func(pred string) int { return rels[pred].Len() })
	st, err := dp.Fixpoint(context.Background(), rels, 0)
	if err != nil {
		t.Fatal(err)
	}
	return dp, rels, st
}

// derivable runs short's head-bound plan for short(x, y) over views.
func derivable(t *testing.T, dp *DeltaProgram, x, y int, views []RelView) (bool, int64) {
	t.Helper()
	head, err := dp.InternFact("short", []ast.Term{ast.N(float64(x)), ast.N(float64(y))}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ok, probes, err := dp.Derivable(context.Background(), 2, head, views, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ok, probes
}

func shortViews(rels map[string]*IRel, padded bool) []RelView {
	if padded {
		return []RelView{rels["path"].View(), rels["edgeP"].View(), rels["markP"].View()}
	}
	return []RelView{rels["path"].View(), rels["edge"].View(), rels["mark"].View()}
}

func fullMaskIndexes(rels map[string]*IRel) []string {
	var out []string
	for pred, ir := range rels {
		for _, ix := range ir.rel().indexes {
			if ix.mask == 1<<uint(ir.arity)-1 {
				out = append(out, pred)
			}
		}
	}
	return out
}

func TestFullyBoundProbeReadsDedupSet(t *testing.T) {
	dp, rels, st := setProbeRels(t, setProbeSrc)
	pdp, prels, pst := setProbeRels(t, setProbePaddedSrc)
	if got, want := rels["short"].Len(), prels["short"].Len(); got != want || got == 0 {
		t.Fatalf("short holds %d rows, padded %d", got, want)
	}
	if st.JoinProbes != pst.JoinProbes || st.RuleFirings != pst.RuleFirings {
		t.Errorf("fixpoint: %d probes, %d firings; through an index %d, %d",
			st.JoinProbes, st.RuleFirings, pst.JoinProbes, pst.RuleFirings)
	}
	// Every pair (x, y) of the chain's nodes: derivable or not, the
	// probes the set path counts are the index path's.
	var hits int
	for x := 1; x <= 13; x++ {
		for y := 1; y <= 13; y++ {
			ok, probes := derivable(t, dp, x, y, shortViews(rels, false))
			pok, pprobes := derivable(t, pdp, x, y, shortViews(prels, true))
			if ok != pok || probes != pprobes {
				t.Fatalf("short(%d, %d): derivable %v in %d probes; through an index %v in %d", x, y, ok, probes, pok, pprobes)
			}
			if ok {
				hits++
			}
		}
	}
	if hits != rels["short"].Len() {
		t.Fatalf("%d pairs derivable, short holds %d", hits, rels["short"].Len())
	}
	if got := fullMaskIndexes(rels); len(got) > 0 {
		t.Errorf("full-key indexes built on %v", got)
	}
	if ix := prels["edgeP"].rel().indexFor(0b011); ix == nil {
		t.Errorf("the padded program built no index on edgeP's bound positions")
	}

	// Versions: edge(1, 2) leaves before a Freeze and comes back after it
	// (a new copy past the frozen view's Hi), edge(3, 4) leaves after it,
	// edge(5, 6) leaves before it for good. short(x, y) is derivable
	// through a view exactly when that view holds edge(x, y) (path and
	// mark hold for all three).
	edge := rels["edge"]
	row := func(x, y int) []uint32 {
		r, err := dp.InternFact("edge", []ast.Term{ast.N(float64(x)), ast.N(float64(y))}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	edge.Remove(row(1, 2))
	edge.Remove(row(5, 6))
	frozen := edge.Freeze()
	edge.Add(row(1, 2))
	edge.Remove(row(3, 4))
	cur := edge.View()
	for _, c := range []struct {
		x, y             int
		inFrozen, inView bool
	}{
		{1, 2, false, true},
		{3, 4, true, false},
		{5, 6, false, false},
	} {
		for _, v := range []struct {
			name string
			view RelView
			want bool
		}{{"frozen", frozen, c.inFrozen}, {"current", cur, c.inView}} {
			views := []RelView{rels["path"].View(), v.view, rels["mark"].View()}
			if ok, _ := derivable(t, dp, c.x, c.y, views); ok != v.want {
				t.Errorf("short(%d, %d) through the %s view of edge: derivable %v, want %v", c.x, c.y, v.name, ok, v.want)
			}
			if got := v.view.Contains(row(c.x, c.y)); got != v.want {
				t.Errorf("the %s view of edge holds edge(%d, %d): %v, want %v", v.name, c.x, c.y, got, v.want)
			}
		}
	}
	if got := fullMaskIndexes(rels); len(got) > 0 {
		t.Errorf("full-key indexes built on %v", got)
	}
}
