package adorn

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

func mustSpecialize(t *testing.T, src string) *SpecProgram {
	t.Helper()
	sp, err := Specialize(parser.MustParseProgram(src))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestSpecializeIdentityForDistinctVars(t *testing.T) {
	sp := mustSpecialize(t, `
		path(X, Y) :- step(X, Y).
		path(X, Y) :- step(X, Z), path(Z, Y).
		?- path.
	`)
	if len(sp.Base) != 1 {
		t.Fatalf("expected one specialized predicate, got %v", sp.Base)
	}
	if sp.Base[sp.Query] != "path" {
		t.Fatalf("Base[%s] = %s", sp.Query, sp.Base[sp.Query])
	}
	if len(sp.Prog.Rules) != 2 {
		t.Fatalf("got %d rules:\n%s", len(sp.Prog.Rules), sp.Prog)
	}
	// Heads use the canonical pattern variables.
	if sp.Prog.Rules[0].Head.Args[0].Name != "V0" {
		t.Fatalf("head not canonicalized: %s", sp.Prog.Rules[0])
	}
}

func TestSpecializeSplitsRepeatedVarPattern(t *testing.T) {
	// q uses p(Z, Z): p must be specialized for the equated pattern.
	sp := mustSpecialize(t, `
		p(X, Y) :- e(X, Y).
		q(Z) :- p(Z, Z).
		?- q.
	`)
	// Specialized predicates: q (all-distinct) and p with pattern (V0, V0).
	if len(sp.Base) != 2 {
		t.Fatalf("expected 2 specialized predicates, got %v", sp.Base)
	}
	var pSpec string
	for name, base := range sp.Base {
		if base == "p" {
			pSpec = name
		}
	}
	pat := sp.Pattern[pSpec]
	if !pat.Args[0].Equal(pat.Args[1]) {
		t.Fatalf("pattern should equate both args: %s", pat)
	}
	// The specialized p rule must have an equated body: e(V0, V0).
	for _, r := range sp.Prog.Rules {
		if r.Head.Pred == pSpec {
			if !r.Pos[0].Args[0].Equal(r.Pos[0].Args[1]) {
				t.Fatalf("body not equated: %s", r)
			}
		}
	}
}

func TestSpecializeConstantPattern(t *testing.T) {
	// q uses p(Z, 5): pattern embeds the constant.
	sp := mustSpecialize(t, `
		p(X, Y) :- e(X, Y).
		q(Z) :- p(Z, 5).
		?- q.
	`)
	var pSpec string
	for name, base := range sp.Base {
		if base == "p" {
			pSpec = name
		}
	}
	if pSpec == "" {
		t.Fatalf("p not specialized: %v", sp.Base)
	}
	if !sp.Pattern[pSpec].Args[1].Equal(ast.N(5)) {
		t.Fatalf("pattern lacks the constant: %s", sp.Pattern[pSpec])
	}
	// The specialized rule's body must bind the constant: e(V0, 5).
	for _, r := range sp.Prog.Rules {
		if r.Head.Pred == pSpec && !r.Pos[0].Args[1].Equal(ast.N(5)) {
			t.Fatalf("constant not propagated: %s", r)
		}
	}
}

func TestSpecializeDropsNonUnifiableRules(t *testing.T) {
	// The rule head p(X, X) cannot produce the pattern p(V0, 5) unless
	// unified; p(1, 2) can never produce p(V0, V0)... here: head with
	// distinct constants vs equated pattern.
	sp := mustSpecialize(t, `
		p(X, Y) :- e(X, Y).
		p(1, 2) :- f(1).
		q(Z) :- p(Z, Z).
		?- q.
	`)
	// p(1,2) cannot unify with pattern p(V0,V0): only one specialized
	// p rule must remain.
	var pRules int
	for _, r := range sp.Prog.Rules {
		if sp.Base[r.Head.Pred] == "p" {
			pRules++
		}
	}
	if pRules != 1 {
		t.Fatalf("got %d specialized p rules, want 1:\n%s", pRules, sp.Prog)
	}
}

func TestSpecializeRequiresQuery(t *testing.T) {
	p := parser.MustParseProgram(`p(X) :- e(X).`)
	if _, err := Specialize(p); err == nil {
		t.Fatal("expected missing-query error")
	}
}

func TestBottomUpFigure1AdornmentsExact(t *testing.T) {
	sp := mustSpecialize(t, `
		p(X, Y) :- a(X, Y).
		p(X, Y) :- b(X, Y).
		p(X, Y) :- a(X, Z), p(Z, Y).
		p(X, Y) :- b(X, Z), p(Z, Y).
		?- p.
	`)
	ics := parser.MustParseICs(`:- a(X, Y), b(Y, Z).`)
	res, err := BottomUp(sp, ics)
	if err != nil {
		t.Fatal(err)
	}
	ads := res.Adorn[sp.Query]
	if len(ads) != 3 {
		t.Fatalf("got %d adornments, want 3 (p1, p2, p3)", len(ads))
	}
	// P1 must have exactly 6 adorned rules (s1..s6): the combinations
	// r3×p2, r3×p3 are inconsistent and r1, r2, r3×p1, r4×p1, r4×p2,
	// r4×p3 survive.
	if len(res.Rules) != 6 {
		for _, ar := range res.Rules {
			t.Logf("rule %s head=%d children=%v", ar.Rule, ar.HeadAdornID, ar.ChildAdornIDs)
		}
		t.Fatalf("got %d adorned rules, want 6", len(res.Rules))
	}
}

func TestBottomUpTripletProvenance(t *testing.T) {
	sp := mustSpecialize(t, `
		p(X, Y) :- a(X, Y).
		p(X, Y) :- a(X, Z), p(Z, Y).
		?- p.
	`)
	ics := parser.MustParseICs(`:- a(X, Y), b(Y, Z).`)
	res, err := BottomUp(sp, ics)
	if err != nil {
		t.Fatal(err)
	}
	// Every non-trivial rule triplet with a head projection must point
	// at a valid triplet of the head adornment.
	for _, ar := range res.Rules {
		headAd := res.Adorn[ar.HeadPred][ar.HeadAdornID]
		for _, rt := range ar.Triplets {
			if rt.HeadTriplet >= 0 {
				if rt.HeadTriplet >= len(headAd.Triplets) {
					t.Fatalf("dangling head-triplet index %d in rule %s", rt.HeadTriplet, ar.Rule)
				}
				ht := headAd.Triplets[rt.HeadTriplet]
				if ht.IC != rt.IC {
					t.Fatalf("head triplet constraint mismatch: %d vs %d", ht.IC, rt.IC)
				}
				if len(ht.Unmapped) != len(rt.Unmapped) {
					t.Fatalf("head triplet unmapped mismatch")
				}
			}
			if len(rt.ChildChoice) != len(ar.Rule.Pos) {
				t.Fatalf("child choice arity mismatch")
			}
		}
	}
}

func TestBottomUpTrivialTripletEverywhere(t *testing.T) {
	sp := mustSpecialize(t, `
		p(X, Y) :- a(X, Y).
		p(X, Y) :- a(X, Z), p(Z, Y).
		?- p.
	`)
	ics := parser.MustParseICs(`:- a(X, Y), b(Y, Z).`)
	res, err := BottomUp(sp, ics)
	if err != nil {
		t.Fatal(err)
	}
	for pred, ads := range res.Adorn {
		for ai, ad := range ads {
			found := false
			for _, tr := range ad.Triplets {
				if tr.IC == 0 && len(tr.Unmapped) == 2 && len(tr.Sigma) == 0 {
					found = true
				}
			}
			if !found {
				t.Fatalf("adornment %d of %s lacks the trivial triplet: %s", ai, pred, ad)
			}
		}
	}
}

func TestBottomUpNoICsSingleAdornment(t *testing.T) {
	sp := mustSpecialize(t, `
		p(X, Y) :- a(X, Y).
		p(X, Y) :- a(X, Z), p(Z, Y).
		?- p.
	`)
	res, err := BottomUp(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Adorn[sp.Query]) != 1 {
		t.Fatalf("without constraints there must be a single (empty) adornment, got %d", len(res.Adorn[sp.Query]))
	}
	if len(res.Rules) != 2 {
		t.Fatalf("got %d adorned rules, want 2", len(res.Rules))
	}
}

func TestBottomUpWarningsForUnsupported(t *testing.T) {
	sp := mustSpecialize(t, `
		p(X) :- e(X, Y).
		?- p.
	`)
	ics := parser.MustParseICs(`:- e(X, Y), !f(Y, Z).`)
	res, err := BottomUp(sp, ics)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 1 || !strings.Contains(res.Warnings[0], "not local") {
		t.Fatalf("warnings = %v", res.Warnings)
	}
}

func TestTripletKeyCanonical(t *testing.T) {
	a := Triplet{IC: 0, Unmapped: []int{0, 1}, Sigma: map[string]Image{
		"X": {Positions: []int{0}},
		"Y": {Positions: []int{1, 2}},
	}}
	b := Triplet{IC: 0, Unmapped: []int{0, 1}, Sigma: map[string]Image{
		"Y": {Positions: []int{1, 2}},
		"X": {Positions: []int{0}},
	}}
	if a.Key() != b.Key() {
		t.Fatal("sigma insertion order must not affect the key")
	}
	c := Triplet{IC: 1, Unmapped: []int{0, 1}, Sigma: a.Sigma}
	if a.Key() == c.Key() {
		t.Fatal("different constraints must differ")
	}
	n5 := ast.N(5)
	d := Triplet{IC: 0, Unmapped: []int{0, 1}, Sigma: map[string]Image{"X": {Const: &n5}}}
	e := Triplet{IC: 0, Unmapped: []int{0, 1}, Sigma: map[string]Image{"X": {Positions: []int{5}}}}
	if d.Key() == e.Key() {
		t.Fatal("constant images must differ from positional ones")
	}
}

func TestAdornmentDedup(t *testing.T) {
	tr := Triplet{IC: 0, Unmapped: []int{0}, Sigma: map[string]Image{}}
	ad := newAdornment([]Triplet{tr, tr, tr}, []string{tr.Key(), tr.Key(), tr.Key()})
	if len(ad.Triplets) != 1 {
		t.Fatalf("got %d triplets, want 1", len(ad.Triplets))
	}
	if ad.TripletIndex(tr.Key()) != 0 {
		t.Fatal("TripletIndex wrong")
	}
	if ad.TripletIndex("nope") != -1 {
		t.Fatal("missing key must return -1")
	}
}

func TestImageTermAt(t *testing.T) {
	atom := ast.NewAtom("p", ast.V("X"), ast.V("Y"), ast.V("X"))
	im := Image{Positions: []int{0, 2}}
	tm, ok := im.termAt(atom)
	if !ok || !tm.Equal(ast.V("X")) {
		t.Fatalf("termAt = %v, %v", tm, ok)
	}
	// Multi-position image over differing terms must fail.
	im2 := Image{Positions: []int{0, 1}}
	if _, ok := im2.termAt(atom); ok {
		t.Fatal("expected failure: positions hold different variables")
	}
	n7 := ast.N(7)
	im3 := Image{Const: &n7}
	tm3, ok := im3.termAt(atom)
	if !ok || !tm3.Equal(ast.N(7)) {
		t.Fatal("constant image must resolve to the constant")
	}
}

func TestImageOf(t *testing.T) {
	head := ast.NewAtom("p", ast.V("X"), ast.V("Y"), ast.V("X"))
	im, ok := imageOf(ast.V("X"), head)
	if !ok || len(im.Positions) != 2 {
		t.Fatalf("imageOf(X) = %+v, %v", im, ok)
	}
	if _, ok := imageOf(ast.V("Z"), head); ok {
		t.Fatal("absent variable must fail")
	}
	im2, ok := imageOf(ast.N(3), head)
	if !ok || im2.Const == nil {
		t.Fatal("constants always have images")
	}
}
