package tcm

import (
	"context"
	"testing"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/eval"
)

func TestHalting2Step(t *testing.T) {
	m := Halting2Step()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	trace, halted := m.Run(10)
	if !halted {
		t.Fatal("machine should halt")
	}
	if len(trace) != 3 {
		t.Fatalf("trace length = %d, want 3", len(trace))
	}
	final := trace[len(trace)-1]
	if final.State != 2 || final.C1 != 2 || final.C2 != 0 {
		t.Fatalf("final config = %+v", final)
	}
}

func TestCountdownMachine(t *testing.T) {
	m := CountdownMachine(3)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	trace, halted := m.Run(100)
	if !halted {
		t.Fatalf("countdown machine should halt; trace = %v", trace)
	}
	// Counter goes up to 3 and back to 0.
	maxC1 := 0
	for _, c := range trace {
		if c.C1 > maxC1 {
			maxC1 = c.C1
		}
	}
	if maxC1 != 3 {
		t.Fatalf("max c1 = %d, want 3", maxC1)
	}
	final := trace[len(trace)-1]
	if final.C1 != 0 {
		t.Fatalf("final c1 = %d, want 0", final.C1)
	}
}

func TestDiverging(t *testing.T) {
	m := Diverging()
	trace, halted := m.Run(50)
	if halted {
		t.Fatal("diverging machine must not halt")
	}
	if len(trace) != 51 {
		t.Fatalf("trace length = %d, want 51 (50 steps + initial)", len(trace))
	}
	if trace[50].C1 != 50 {
		t.Fatalf("c1 = %d after 50 pumps", trace[50].C1)
	}
}

func TestValidateRejectsBadMachines(t *testing.T) {
	cases := []*Machine{
		{States: 0, Halt: 0},
		{States: 2, Halt: 5},
		{States: 2, Halt: 0}, // halt == start
		{States: 3, Halt: 2, Trans: []Transition{{State: 0, Next: 7}}},
		{States: 3, Halt: 2, Trans: []Transition{{State: 0, Next: 1, C1: IfZero, Op1: Dec}}},
	}
	for i, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestEncodeShapes(t *testing.T) {
	enc, err := Encode(Halting2Step())
	if err != nil {
		t.Fatal(err)
	}
	if enc.Program.Query != "halt" {
		t.Fatalf("query = %s", enc.Program.Query)
	}
	if len(enc.Program.Rules) != 3 {
		t.Fatalf("program rules = %d, want 3 (reach base, reach step, halt)", len(enc.Program.Rules))
	}
	if err := enc.Program.Validate(); err != nil {
		t.Fatalf("encoded program invalid: %v", err)
	}
	if err := enc.Program.ValidateICs(enc.ICs); err != nil {
		t.Fatalf("encoded ics invalid: %v", err)
	}
	// 2 transitions × 3 mismatch ics + fixed infrastructure ics.
	if len(enc.ICs) < 20 {
		t.Fatalf("suspiciously few ics: %d", len(enc.ICs))
	}
}

func TestStateChain(t *testing.T) {
	s := ast.V("S")
	c0 := stateChain(0, s, "Z")
	if len(c0) != 1 || c0[0].Pred != "zero" || !c0[0].Args[0].Equal(s) {
		t.Fatalf("chain(0) = %v", c0)
	}
	c2 := stateChain(2, s, "Z")
	// zero(Z0), succ(Z0, Z1), succ(Z1, S)
	if len(c2) != 3 || c2[0].Pred != "zero" || c2[2].Pred != "succ" || !c2[2].Args[1].Equal(s) {
		t.Fatalf("chain(2) = %v", c2)
	}
}

func TestTraceDBOfHaltingRunIsConsistent(t *testing.T) {
	m := Halting2Step()
	enc, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	trace, halted := m.Run(10)
	if !halted {
		t.Fatal("machine should halt")
	}
	db := TraceDB(m, trace)
	ok, err := chase.IsConsistent(db, enc.ICs)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("the database of a correct halting run must satisfy every constraint")
	}
}

func TestTraceDBDerivesHalt(t *testing.T) {
	m := Halting2Step()
	enc, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	trace, _ := m.Run(10)
	edb := eval.NewDB()
	edb.AddFacts(TraceDB(m, trace))
	tuples, _, err := eval.QueryCtx(context.Background(), enc.Program, edb, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 {
		t.Fatalf("halt should be derived exactly once, got %d", len(tuples))
	}
}

func TestTraceDBDivergingNoHalt(t *testing.T) {
	m := Diverging()
	enc, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	trace, halted := m.Run(8)
	if halted {
		t.Fatal("diverging machine halted?")
	}
	db := TraceDB(m, trace)
	ok, err := chase.IsConsistent(db, enc.ICs)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("a correct (non-halting) prefix must still satisfy the constraints")
	}
	edb := eval.NewDB()
	edb.AddFacts(db)
	tuples, _, err := eval.QueryCtx(context.Background(), enc.Program, edb, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 0 {
		t.Fatalf("halt must not be derivable, got %d tuples", len(tuples))
	}
}

func TestCorruptedTraceViolatesICs(t *testing.T) {
	m := Halting2Step()
	enc, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	trace, _ := m.Run(10)
	// Corrupt the run: claim the machine jumped straight to state 2 at
	// time 1 without the second increment.
	trace[1].State = 2
	db := TraceDB(m, trace)
	ok, err := chase.IsConsistent(db, enc.ICs)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("a corrupted trace must violate some transition constraint")
	}
}

func TestCorruptedCounterViolatesICs(t *testing.T) {
	m := Halting2Step()
	enc, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	trace, _ := m.Run(10)
	trace[1].C1 = 0 // the first step increments c1; claim it did not
	db := TraceDB(m, trace)
	ok, err := chase.IsConsistent(db, enc.ICs)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("a corrupted counter must violate the c1-mismatch constraint")
	}
}

func TestReachComputesTimes(t *testing.T) {
	m := CountdownMachine(2)
	enc, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	trace, halted := m.Run(100)
	if !halted {
		t.Fatal("should halt")
	}
	edb := eval.NewDB()
	edb.AddFacts(TraceDB(m, trace))
	idb, _, err := eval.EvalCtx(context.Background(), enc.Program, edb, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := idb.Count("reach"); got != len(trace) {
		t.Fatalf("reach has %d tuples, want %d (one per configuration)", got, len(trace))
	}
	if idb.Count("halt") != 1 {
		t.Fatal("halt should be derived")
	}
}
