package ast

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestTermConstructorsAndPredicates(t *testing.T) {
	v := V("X")
	if !v.IsVar() || v.IsConst() {
		t.Fatalf("V(X) should be a variable")
	}
	n := N(3.5)
	if n.IsVar() || !n.IsConst() {
		t.Fatalf("N(3.5) should be a constant")
	}
	s := S("abc")
	if s.Kind != Str || s.Name != "abc" {
		t.Fatalf("S(abc) malformed: %+v", s)
	}
}

func TestTermEqual(t *testing.T) {
	cases := []struct {
		a, b Term
		want bool
	}{
		{V("X"), V("X"), true},
		{V("X"), V("Y"), false},
		{N(1), N(1), true},
		{N(1), N(2), false},
		{S("a"), S("a"), true},
		{S("a"), S("b"), false},
		{V("X"), S("X"), false},
		{N(1), S("1"), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestTermCompare(t *testing.T) {
	if N(1).Compare(N(2)) >= 0 {
		t.Error("1 should precede 2")
	}
	if N(2).Compare(N(2)) != 0 {
		t.Error("2 == 2")
	}
	if S("a").Compare(S("b")) >= 0 {
		t.Error("a should precede b")
	}
	if N(1e9).Compare(S("")) >= 0 {
		t.Error("numbers precede strings")
	}
	if S("").Compare(N(-1e9)) <= 0 {
		t.Error("strings follow numbers")
	}
}

func TestTermComparePanicsOnVar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic comparing a variable")
		}
	}()
	V("X").Compare(N(1))
}

func TestTermKeyDistinct(t *testing.T) {
	// The three kinds must never collide even with identical spellings.
	keys := map[string]bool{}
	for _, tm := range []Term{V("a"), S("a"), V("1"), N(1), S("1")} {
		if keys[tm.Key()] {
			t.Fatalf("key collision for %v: %s", tm, tm.Key())
		}
		keys[tm.Key()] = true
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		tm   Term
		want string
	}{
		{V("X"), "X"},
		{N(42), "42"},
		{N(3.5), "3.5"},
		{S("abc"), "abc"},
		{S("Abc"), `"Abc"`}, // would parse as a variable → quoted
		{S("a b"), `"a b"`}, // space → quoted
		{S(""), `""`},       // empty → quoted
		{S("9lives"), `"9lives"`},
	}
	for _, c := range cases {
		if got := c.tm.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.tm, got, c.want)
		}
	}
}

func TestAtomBasics(t *testing.T) {
	a := NewAtom("p", V("X"), N(1), V("X"), V("Y"))
	if a.Arity() != 4 {
		t.Fatalf("arity = %d", a.Arity())
	}
	if got := a.Vars(nil); len(got) != 2 || got[0] != "X" || got[1] != "Y" {
		t.Fatalf("Vars = %v", got)
	}
	if !a.HasVar("Y") || a.HasVar("Z") {
		t.Fatal("HasVar wrong")
	}
	if a.Ground() {
		t.Fatal("not ground")
	}
	if !NewAtom("p", N(1), S("a")).Ground() {
		t.Fatal("should be ground")
	}
	b := a.Clone()
	b.Args[0] = V("Z")
	if a.Args[0].Name != "X" {
		t.Fatal("Clone aliases args")
	}
}

func TestAtomKeyAndEqual(t *testing.T) {
	a := NewAtom("p", V("X"), N(1))
	b := NewAtom("p", V("X"), N(1))
	c := NewAtom("p", V("Y"), N(1))
	if !a.Equal(b) || a.Key() != b.Key() {
		t.Fatal("equal atoms must share keys")
	}
	if a.Equal(c) || a.Key() == c.Key() {
		t.Fatal("distinct atoms must differ")
	}
}

func TestAtomPatternKey(t *testing.T) {
	a := NewAtom("p", V("X"), V("Y"), V("X"))
	b := NewAtom("p", V("A"), V("B"), V("A"))
	c := NewAtom("p", V("X"), V("X"), V("Y"))
	if a.PatternKey() != b.PatternKey() {
		t.Fatal("isomorphic atoms must share PatternKey")
	}
	if a.PatternKey() == c.PatternKey() {
		t.Fatal("non-isomorphic atoms must not share PatternKey")
	}
	d := NewAtom("p", V("X"), N(5), V("X"))
	e := NewAtom("p", V("Z"), N(5), V("Z"))
	if d.PatternKey() != e.PatternKey() {
		t.Fatal("constants must be compared by value in PatternKey")
	}
	f := NewAtom("p", V("X"), N(6), V("X"))
	if d.PatternKey() == f.PatternKey() {
		t.Fatal("different constants must yield different PatternKeys")
	}
}

func TestAtomIsomorphic(t *testing.T) {
	a := NewAtom("p", V("X"), V("Y"), V("X"))
	b := NewAtom("p", V("A"), V("B"), V("A"))
	c := NewAtom("p", V("A"), V("A"), V("B"))
	if !a.Isomorphic(b) {
		t.Fatal("a ~ b")
	}
	if a.Isomorphic(c) {
		t.Fatal("a !~ c (renaming must be bijective)")
	}
	if a.Isomorphic(NewAtom("q", V("X"), V("Y"), V("X"))) {
		t.Fatal("different predicates")
	}
}

func TestAtomIsomorphicAgreesWithPatternKey(t *testing.T) {
	// Property: Isomorphic(a,b) ⇔ PatternKey(a) == PatternKey(b),
	// for atoms over a small vocabulary.
	terms := []Term{V("X"), V("Y"), V("Z"), N(1), S("a")}
	var atoms []Atom
	for _, t1 := range terms {
		for _, t2 := range terms {
			atoms = append(atoms, NewAtom("p", t1, t2))
		}
	}
	for _, a := range atoms {
		for _, b := range atoms {
			iso := a.Isomorphic(b)
			pk := a.PatternKey() == b.PatternKey()
			if iso != pk {
				t.Fatalf("Isomorphic(%v,%v)=%v but PatternKey equality=%v", a, b, iso, pk)
			}
		}
	}
}

func TestCmpNegateFlip(t *testing.T) {
	ops := []CmpOp{LT, LE, GT, GE, EQ, NE}
	for _, op := range ops {
		if op.Negate().Negate() != op {
			t.Errorf("Negate not involutive for %v", op)
		}
		if op.Flip().Flip() != op {
			t.Errorf("Flip not involutive for %v", op)
		}
	}
	if LT.Negate() != GE || GT.Negate() != LE || EQ.Negate() != NE {
		t.Fatal("Negate table wrong")
	}
	if LT.Flip() != GT || LE.Flip() != GE || EQ.Flip() != EQ {
		t.Fatal("Flip table wrong")
	}
}

func TestCmpEval(t *testing.T) {
	cases := []struct {
		c    Cmp
		want bool
	}{
		{NewCmp(N(1), LT, N(2)), true},
		{NewCmp(N(2), LT, N(1)), false},
		{NewCmp(N(2), LE, N(2)), true},
		{NewCmp(N(2), GT, N(1)), true},
		{NewCmp(N(1), GE, N(2)), false},
		{NewCmp(N(2), EQ, N(2)), true},
		{NewCmp(N(2), NE, N(2)), false},
		{NewCmp(S("a"), LT, S("b")), true},
		{NewCmp(N(5), LT, S("a")), true}, // numbers precede strings
	}
	for _, c := range cases {
		if got := c.c.Eval(); got != c.want {
			t.Errorf("Eval(%v) = %v, want %v", c.c, got, c.want)
		}
	}
}

func TestCmpEvalConsistentWithNegate(t *testing.T) {
	// Property check via testing/quick: for all constant pairs,
	// c.Eval() != c.Negate().Eval().
	f := func(a, b float64) bool {
		for _, op := range []CmpOp{LT, LE, GT, GE, EQ, NE} {
			c := NewCmp(N(a), op, N(b))
			if c.Eval() == c.Negate().Eval() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCmpEvalConsistentWithFlip(t *testing.T) {
	f := func(a, b float64) bool {
		for _, op := range []CmpOp{LT, LE, GT, GE, EQ, NE} {
			c := NewCmp(N(a), op, N(b))
			if c.Eval() != c.Flip().Eval() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCmpKeyNormalization(t *testing.T) {
	// x > y and y < x denote the same constraint.
	a := NewCmp(V("X"), GT, V("Y"))
	b := NewCmp(V("Y"), LT, V("X"))
	if a.Key() != b.Key() {
		t.Fatalf("keys differ: %s vs %s", a.Key(), b.Key())
	}
	// x = y and y = x likewise.
	c := NewCmp(V("X"), EQ, V("Y"))
	d := NewCmp(V("Y"), EQ, V("X"))
	if c.Key() != d.Key() {
		t.Fatalf("EQ keys differ: %s vs %s", c.Key(), d.Key())
	}
	// x < y and x <= y must differ.
	if NewCmp(V("X"), LT, V("Y")).Key() == NewCmp(V("X"), LE, V("Y")).Key() {
		t.Fatal("LT and LE keys must differ")
	}
}

func TestRuleVarsAndSafety(t *testing.T) {
	// path(X,Y) :- step(X,Z), path(Z,Y), X < 100.
	r := Rule{
		Head: NewAtom("path", V("X"), V("Y")),
		Pos:  []Atom{NewAtom("step", V("X"), V("Z")), NewAtom("path", V("Z"), V("Y"))},
		Cmp:  []Cmp{NewCmp(V("X"), LT, N(100))},
	}
	if got := r.Vars(); len(got) != 3 {
		t.Fatalf("Vars = %v", got)
	}
	if err := r.Safe(); err != nil {
		t.Fatalf("rule should be safe: %v", err)
	}
	// Unsafe: head var W not in body.
	bad := Rule{Head: NewAtom("p", V("W")), Pos: []Atom{NewAtom("e", V("X"))}}
	if err := bad.Safe(); err == nil {
		t.Fatal("expected unsafe-head error")
	}
	// Unsafe: negated var not in positive subgoal.
	bad2 := Rule{
		Head: NewAtom("p", V("X")),
		Pos:  []Atom{NewAtom("e", V("X"))},
		Neg:  []Atom{NewAtom("f", V("Y"))},
	}
	if err := bad2.Safe(); err == nil {
		t.Fatal("expected unsafe-negation error")
	}
	// Unsafe: order-atom var unbound.
	bad3 := Rule{
		Head: NewAtom("p", V("X")),
		Pos:  []Atom{NewAtom("e", V("X"))},
		Cmp:  []Cmp{NewCmp(V("Y"), LT, N(1))},
	}
	if err := bad3.Safe(); err == nil {
		t.Fatal("expected unsafe-order-atom error")
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{
		Head: NewAtom("p", V("X")),
		Pos:  []Atom{NewAtom("e", V("X"), V("Y"))},
		Neg:  []Atom{NewAtom("f", V("Y"))},
		Cmp:  []Cmp{NewCmp(V("X"), LT, N(10))},
	}
	want := "p(X) :- e(X, Y), !f(Y), X < 10."
	if got := r.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

// TestKeysAndEquality: AppendKey appends exactly Key, CmpsKey and
// AtomsKey are order-insensitive, and two rules are Equal iff they
// print alike.
func TestKeysAndEquality(t *testing.T) {
	terms := []Term{V("X"), N(-2.5), N(1e21), S("a"), S("Hello world"), V("_")}
	for _, x := range terms {
		if got := string(x.AppendKey([]byte("pre"))); got != "pre"+x.Key() {
			t.Fatalf("AppendKey(%v) = %q, want %q", x, got, "pre"+x.Key())
		}
	}
	cs := []Cmp{NewCmp(V("Y"), GT, V("X")), NewCmp(N(3), EQ, V("X")), NewCmp(V("X"), NE, S("b"))}
	rev := []Cmp{cs[2], cs[1], cs[0]}
	if CmpsKey(cs) != CmpsKey(rev) || CmpsKey(cs) != "#3=?X;$b!=?X;?X<?Y" {
		t.Fatalf("CmpsKey = %q / %q", CmpsKey(cs), CmpsKey(rev))
	}
	as := []Atom{NewAtom("q", N(1)), NewAtom("p", V("X"), S("c"))}
	if AtomsKey(as) != "p(?X,$c);q(#1)" || AtomsKey([]Atom{as[1], as[0]}) != AtomsKey(as) {
		t.Fatalf("AtomsKey = %q", AtomsKey(as))
	}
	base := Rule{Head: NewAtom("p", V("X")), Pos: []Atom{NewAtom("e", V("X"), N(1))},
		Neg: []Atom{NewAtom("f", V("X"))}, Cmp: []Cmp{NewCmp(V("X"), LT, N(10))}}
	variants := []Rule{base, base.Clone()}
	for _, edit := range []func(r *Rule){
		func(r *Rule) { r.Head.Args[0] = V("Y") },
		func(r *Rule) { r.Pos[0].Args[1] = N(2) },
		func(r *Rule) { r.Neg = nil },
		func(r *Rule) { r.Cmp[0].Op = LE },
		func(r *Rule) { r.Pos = append(r.Pos, NewAtom("e", V("X"), N(1))) },
		func(r *Rule) { r.Cmp[0] = r.Cmp[0].Flip() },
	} {
		r := base.Clone()
		edit(&r)
		variants = append(variants, r)
	}
	for _, a := range variants {
		for _, b := range variants {
			if a.Equal(b) != (a.String() == b.String()) {
				t.Fatalf("Equal(%s, %s) = %v, but they print alike: %v", a, b, a.Equal(b), a.String() == b.String())
			}
		}
	}
}

// TestCanonicalString: CanonicalString is String of the renaming of
// the variables to V0, V1, ... by first occurrence, so alphabetic
// variants render alike and others do not.
func TestCanonicalString(t *testing.T) {
	r := Rule{Head: NewAtom("p", V("Y"), V("X")), Pos: []Atom{NewAtom("e", V("X"), V("Z"), S("k")), NewAtom("p", V("Z"), V("Y"))},
		Neg: []Atom{NewAtom("f", V("W"))}, Cmp: []Cmp{NewCmp(V("W"), LT, N(3)), NewCmp(V("Y"), NE, V("X"))}}
	if got, want := r.CanonicalString(), "p(V0, V1) :- e(V1, V2, k), p(V2, V0), !f(V3), V3 < 3, V0 != V1."; got != want {
		t.Fatalf("CanonicalString = %q, want %q", got, want)
	}
	variant := RenameRule(r, func(v string) string { return v + "_9" })
	if variant.CanonicalString() != r.CanonicalString() {
		t.Fatalf("alphabetic variant renders %q", variant.CanonicalString())
	}
	other := r.Clone()
	other.Pos[1].Args[0] = V("X")
	if other.CanonicalString() == r.CanonicalString() {
		t.Fatal("a rule with another equality pattern renders alike")
	}
}

func TestICString(t *testing.T) {
	ic := IC{
		Pos: []Atom{NewAtom("a", V("X"), V("Y")), NewAtom("b", V("Y"), V("Z"))},
	}
	want := ":- a(X, Y), b(Y, Z)."
	if got := ic.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if !ic.Pure() {
		t.Fatal("pure ic misclassified")
	}
	ic2 := IC{Pos: []Atom{NewAtom("a", V("X"))}, Cmp: []Cmp{NewCmp(V("X"), LT, N(5))}}
	if ic2.Pure() {
		t.Fatal("ic with order atom is not pure")
	}
}

func TestProgramIDBAndEDB(t *testing.T) {
	p := &Program{
		Query: "path",
		Rules: []Rule{
			{Head: NewAtom("path", V("X"), V("Y")), Pos: []Atom{NewAtom("step", V("X"), V("Y"))}},
			{Head: NewAtom("path", V("X"), V("Y")), Pos: []Atom{NewAtom("step", V("X"), V("Z")), NewAtom("path", V("Z"), V("Y"))}},
		},
	}
	idb, edb := p.IDB(), p.EDB()
	if !idb["path"] || idb["step"] {
		t.Fatalf("IDB = %v", idb)
	}
	if !edb["step"] || edb["path"] {
		t.Fatalf("EDB = %v", edb)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := p.SortedPreds(); len(got) != 2 || got[0] != "path" || got[1] != "step" {
		t.Fatalf("SortedPreds = %v", got)
	}
	if rs := p.RulesFor("path"); len(rs) != 2 {
		t.Fatalf("RulesFor(path) = %d rules", len(rs))
	}
}

func TestProgramValidateErrors(t *testing.T) {
	// Arity clash.
	p := &Program{Rules: []Rule{
		{Head: NewAtom("p", V("X")), Pos: []Atom{NewAtom("e", V("X"))}},
		{Head: NewAtom("p", V("X"), V("X")), Pos: []Atom{NewAtom("e", V("X"))}},
	}}
	if err := p.Validate(); err == nil {
		t.Fatal("expected arity error")
	}
	// Negated IDB.
	p2 := &Program{Rules: []Rule{
		{Head: NewAtom("p", V("X")), Pos: []Atom{NewAtom("e", V("X"))}},
		{Head: NewAtom("q", V("X")), Pos: []Atom{NewAtom("e", V("X"))}, Neg: []Atom{NewAtom("p", V("X"))}},
	}}
	if err := p2.Validate(); err == nil {
		t.Fatal("expected negated-IDB error")
	}
	// A query predicate with no rules denotes the empty relation and
	// is valid (the output of optimizing an unsatisfiable query).
	p3 := &Program{Query: "nope", Rules: []Rule{
		{Head: NewAtom("p", V("X")), Pos: []Atom{NewAtom("e", V("X"))}},
	}}
	if err := p3.Validate(); err != nil {
		t.Fatalf("rule-less query must validate: %v", err)
	}
}

func TestProgramValidateICs(t *testing.T) {
	p := &Program{Query: "p", Rules: []Rule{
		{Head: NewAtom("p", V("X")), Pos: []Atom{NewAtom("e", V("X"), V("Y"))}},
	}}
	ok := []IC{{Pos: []Atom{NewAtom("e", V("X"), V("Y"))}, Cmp: []Cmp{NewCmp(V("X"), LT, V("Y"))}}}
	if err := p.ValidateICs(ok); err != nil {
		t.Fatalf("ValidateICs: %v", err)
	}
	// IDB in ic body.
	bad := []IC{{Pos: []Atom{NewAtom("p", V("X"))}}}
	if err := p.ValidateICs(bad); err == nil {
		t.Fatal("expected IDB-in-ic error")
	}
	// Arity clash with program.
	bad2 := []IC{{Pos: []Atom{NewAtom("e", V("X"))}}}
	if err := p.ValidateICs(bad2); err == nil {
		t.Fatal("expected arity error")
	}
	// Dangling order-atom variable.
	bad3 := []IC{{Pos: []Atom{NewAtom("e", V("X"), V("Y"))}, Cmp: []Cmp{NewCmp(V("Z"), LT, N(1))}}}
	if err := p.ValidateICs(bad3); err == nil {
		t.Fatal("expected dangling-variable error")
	}
}

func TestRenameRuleDisjointness(t *testing.T) {
	r := Rule{
		Head: NewAtom("p", V("X")),
		Pos:  []Atom{NewAtom("e", V("X"), V("Y"))},
		Neg:  []Atom{NewAtom("f", V("Y"))},
		Cmp:  []Cmp{NewCmp(V("X"), LT, V("Y"))},
	}
	ren := NewRenamer(r.Vars()...)
	r1 := RenameRule(r, ren.Next(r.Vars()))
	r2 := RenameRule(r, ren.Next(r.Vars()))
	vs1, vs2 := map[string]bool{}, map[string]bool{}
	for _, v := range r1.Vars() {
		vs1[v] = true
	}
	for _, v := range r2.Vars() {
		if vs1[v] {
			t.Fatalf("renamed copies share variable %s", v)
		}
		vs2[v] = true
	}
	// Structure preserved: same number of vars, same shape.
	if len(vs1) != 2 || len(vs2) != 2 {
		t.Fatalf("variable counts wrong: %v %v", vs1, vs2)
	}
	if r1.Head.Pred != "p" || len(r1.Pos) != 1 || len(r1.Neg) != 1 || len(r1.Cmp) != 1 {
		t.Fatal("renaming changed rule shape")
	}
	// Original untouched.
	if r.Head.Args[0].Name != "X" {
		t.Fatal("rename mutated the original")
	}
}

func TestCanonicalizeAtom(t *testing.T) {
	a := NewAtom("p", V("Foo"), V("Bar"), V("Foo"), N(7))
	ca, m := CanonicalizeAtom(a)
	if ca.Args[0].Name != "V0" || ca.Args[1].Name != "V1" || ca.Args[2].Name != "V0" {
		t.Fatalf("canonical form wrong: %v", ca)
	}
	if ca.Args[3].Val != 7 {
		t.Fatal("constants must survive canonicalization")
	}
	if m["Foo"] != "V0" || m["Bar"] != "V1" {
		t.Fatalf("mapping wrong: %v", m)
	}
	b := NewAtom("p", V("A"), V("B"), V("A"), N(7))
	cb, _ := CanonicalizeAtom(b)
	if !ca.Equal(cb) {
		t.Fatal("isomorphic atoms must canonicalize identically")
	}
}

func TestRenamerAvoidsTakenNames(t *testing.T) {
	// Nothing collides: the plain "_n" spelling, n counting up.
	ren := NewRenamer("A")
	if got := ren.Next([]string{"X"})("X"); got != "X_1" {
		t.Fatalf("first renaming = %s, want X_1", got)
	}
	if got := ren.Next([]string{"X"})("X"); got != "X_2" {
		t.Fatalf("second renaming = %s, want X_2", got)
	}
	// Avoided names in the suffix shape: _1 is free for {X, Y}; after
	// _2, X_3 and Y_4 push {X, Y} to _5, and X_6 pushes {X} to _7.
	ren = NewRenamer("X_3", "Y_4", "X_6")
	f := ren.Next([]string{"X", "Y"})
	if f("X") != "X_1" || f("Y") != "Y_1" {
		t.Fatalf("uncolliding renaming = %s, %s", f("X"), f("Y"))
	}
	ren.Next(nil) // _2
	f = ren.Next([]string{"X", "Y"})
	if f("X") != "X_5" || f("Y") != "Y_5" {
		t.Fatalf("renaming past taken names = %s, %s, want X_5, Y_5", f("X"), f("Y"))
	}
	if got := ren.Next([]string{"X"})("X"); got != "X_7" {
		t.Fatalf("renaming = %s, want X_7", got)
	}
	if !ren.Collides([]string{"A", "Y_4"}) || ren.Collides([]string{"X", "Y_3"}) {
		t.Fatal("Collides disagrees with the avoided names")
	}
	// Renamings from different calls never meet, whatever the base
	// names: n follows the last '_'.
	var zero Renamer
	a, b := zero.Next([]string{"X_1"})("X_1"), zero.Next([]string{"X"})("X")
	if a == b {
		t.Fatalf("two renamings share %s", a)
	}
}

func TestAtomsKeyOrderInsensitive(t *testing.T) {
	a := NewAtom("a", V("X"))
	b := NewAtom("b", V("Y"))
	if AtomsKey([]Atom{a, b}) != AtomsKey([]Atom{b, a}) {
		t.Fatal("AtomsKey must be order-insensitive")
	}
	if AtomsKey([]Atom{a}) == AtomsKey([]Atom{a, b}) {
		t.Fatal("AtomsKey must distinguish different sets")
	}
}

func TestCmpsKeyOrderInsensitive(t *testing.T) {
	c1 := NewCmp(V("X"), LT, V("Y"))
	c2 := NewCmp(V("Y"), NE, V("Z"))
	if CmpsKey([]Cmp{c1, c2}) != CmpsKey([]Cmp{c2, c1}) {
		t.Fatal("CmpsKey must be order-insensitive")
	}
}

func TestIsInit(t *testing.T) {
	idb := map[string]bool{"p": true}
	r1 := Rule{Head: NewAtom("p", V("X")), Pos: []Atom{NewAtom("e", V("X"))}}
	r2 := Rule{Head: NewAtom("p", V("X")), Pos: []Atom{NewAtom("e", V("X")), NewAtom("p", V("X"))}}
	if !r1.IsInit(idb) {
		t.Fatal("r1 is an initialization rule")
	}
	if r2.IsInit(idb) {
		t.Fatal("r2 is recursive")
	}
}

func TestRecursionComponents(t *testing.T) {
	// a and b call each other, c calls itself, d reads them all, e is
	// a plain view: components come dependencies first, each sorted.
	rule := func(head string, body ...string) Rule {
		r := Rule{Head: NewAtom(head, V("X"))}
		for _, b := range body {
			r.Pos = append(r.Pos, NewAtom(b, V("X")))
		}
		return r
	}
	p := &Program{Rules: []Rule{
		rule("d", "a", "c", "e"),
		rule("a", "b", "edge"),
		rule("b", "a"),
		rule("b", "edge"),
		rule("c", "c", "edge"),
		rule("c", "edge"),
		rule("e", "edge"),
	}}
	rc := p.Recursion()
	wantComps := [][]string{{"a", "b"}, {"c"}, {"e"}, {"d"}}
	if !reflect.DeepEqual(rc.Comps, wantComps) {
		t.Fatalf("components = %v, want %v", rc.Comps, wantComps)
	}
	if want := []bool{true, true, false, false}; !reflect.DeepEqual(rc.Cyclic, want) {
		t.Fatalf("cyclic = %v, want %v", rc.Cyclic, want)
	}
	if want := map[string]bool{"c": true}; !reflect.DeepEqual(rc.Self, want) {
		t.Fatalf("self = %v, want %v", rc.Self, want)
	}
	for pred, want := range map[string]bool{"a": true, "b": true, "c": true, "d": false, "e": false, "edge": false} {
		if rc.Recursive(pred) != want {
			t.Errorf("Recursive(%s) = %v, want %v", pred, !want, want)
		}
	}
	if !rc.Same("a", "b") || rc.Same("a", "c") || rc.Same("edge", "edge") {
		t.Error("Same disagrees with the components")
	}
}
