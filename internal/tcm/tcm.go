// Package tcm implements two-counter (Minsky) machines and the
// reduction of their halting problem to datalog satisfiability with
// {¬}-integrity constraints — the construction behind Theorem 5.4 and
// its appendix proof. The package provides a machine interpreter, the
// exact program + constraint set of the appendix (with the predicates
// dom, eq, neq, succ, zero, cnfg), and an encoder that turns a finite
// run into a concrete extensional database, so the correspondence
// "program satisfiable iff the machine halts" can be exercised
// end-to-end on real inputs.
package tcm

import "fmt"

// CounterTest is a transition's guard on one counter. The zero
// CounterTest matches regardless of the counter value.
type CounterTest int

const (
	// IfZero matches only when the counter is zero.
	IfZero CounterTest = iota + 1
	// IfPos matches only when the counter is positive.
	IfPos
)

func (t CounterTest) String() string {
	switch t {
	case IfZero:
		return "=0"
	case IfPos:
		return ">0"
	default:
		return "*"
	}
}

// CounterOp is a transition's effect on one counter.
type CounterOp int

const (
	// Keep leaves the counter unchanged.
	Keep CounterOp = iota
	// Inc increments the counter.
	Inc
	// Dec decrements the counter (the transition is inapplicable when
	// the counter is zero).
	Dec
)

func (o CounterOp) String() string {
	switch o {
	case Inc:
		return "+1"
	case Dec:
		return "-1"
	default:
		return "·"
	}
}

// Transition is one instruction: in state State with counters
// matching the two guards, move to Next applying the two ops.
type Transition struct {
	State    int
	C1, C2   CounterTest
	Next     int
	Op1, Op2 CounterOp
}

// String renders the transition.
func (tr Transition) String() string {
	return fmt.Sprintf("δ(%d, c1%s, c2%s) = (%d, c1%s, c2%s)",
		tr.State, tr.C1, tr.C2, tr.Next, tr.Op1, tr.Op2)
}

// Machine is a deterministic two-counter machine. By convention (and
// as required by the Theorem 5.4 encoding) the start state is 0 and
// both counters start at zero.
type Machine struct {
	// States is the number of states (numbered 0..States-1).
	States int
	// Halt is the halting state; reaching it stops the machine.
	Halt int
	// Trans lists the transitions; at each step the first applicable
	// transition fires.
	Trans []Transition
}

// Config is a machine configuration.
type Config struct {
	Time   int
	State  int
	C1, C2 int
}

// Validate checks structural sanity.
func (m *Machine) Validate() error {
	if m.States <= 0 {
		return fmt.Errorf("tcm: machine needs at least one state")
	}
	if m.Halt < 0 || m.Halt >= m.States {
		return fmt.Errorf("tcm: halt state %d out of range", m.Halt)
	}
	if m.Halt == 0 {
		return fmt.Errorf("tcm: halt state cannot be the start state 0 (the encoding requires a zero start state)")
	}
	for _, tr := range m.Trans {
		if tr.State < 0 || tr.State >= m.States || tr.Next < 0 || tr.Next >= m.States {
			return fmt.Errorf("tcm: transition %s references an unknown state", tr)
		}
		if tr.Op1 == Dec && tr.C1 == IfZero {
			return fmt.Errorf("tcm: transition %s decrements a counter guarded to be zero", tr)
		}
		if tr.Op2 == Dec && tr.C2 == IfZero {
			return fmt.Errorf("tcm: transition %s decrements a counter guarded to be zero", tr)
		}
	}
	return nil
}

// matches reports whether the guard accepts the counter value.
func (t CounterTest) matches(c int) bool {
	switch t {
	case IfZero:
		return c == 0
	case IfPos:
		return c > 0
	default:
		return true
	}
}

func (o CounterOp) apply(c int) (int, bool) {
	switch o {
	case Inc:
		return c + 1, true
	case Dec:
		if c == 0 {
			return 0, false
		}
		return c - 1, true
	default:
		return c, true
	}
}

// Step applies the first applicable transition; ok is false when the
// machine is stuck or already halted.
func (m *Machine) Step(c Config) (Config, bool) {
	if c.State == m.Halt {
		return c, false
	}
	for _, tr := range m.Trans {
		if tr.State != c.State || !tr.C1.matches(c.C1) || !tr.C2.matches(c.C2) {
			continue
		}
		n1, ok1 := tr.Op1.apply(c.C1)
		n2, ok2 := tr.Op2.apply(c.C2)
		if !ok1 || !ok2 {
			continue
		}
		return Config{Time: c.Time + 1, State: tr.Next, C1: n1, C2: n2}, true
	}
	return c, false
}

// Run executes from the initial configuration for at most maxSteps
// steps, returning the trace (including the initial configuration) and
// whether the halting state was reached.
func (m *Machine) Run(maxSteps int) ([]Config, bool) {
	cfg := Config{}
	trace := []Config{cfg}
	for i := 0; i < maxSteps; i++ {
		if cfg.State == m.Halt {
			return trace, true
		}
		next, ok := m.Step(cfg)
		if !ok {
			return trace, false
		}
		cfg = next
		trace = append(trace, cfg)
	}
	return trace, cfg.State == m.Halt
}

// Halting2Step returns a tiny machine that increments c1 twice and
// halts: 0 → 1 → 2(halt).
func Halting2Step() *Machine {
	return &Machine{
		States: 3,
		Halt:   2,
		Trans: []Transition{
			{State: 0, Next: 1, Op1: Inc},
			{State: 1, Next: 2, Op1: Inc},
		},
	}
}

// CountdownMachine counts c1 up to n, then back down to zero, then
// halts — exercising Inc, Dec, and both guards.
func CountdownMachine(n int) *Machine {
	// state 0: c1 < n (tracked via c2 as the "phase" being zero):
	// increment until c2... encode instead with states:
	// state 0 (pump): inc c1, dec budget in c2? Simpler: use two
	// states: 0 pumps c1 n times via unary states... To stay small:
	// state 0: if c1 = 0, inc c1, stay? That never reaches n.
	// Use a chain of n pump states followed by a drain state.
	m := &Machine{States: n + 3, Halt: n + 2}
	for i := 0; i < n; i++ {
		m.Trans = append(m.Trans, Transition{State: i, Next: i + 1, Op1: Inc})
	}
	drain := n
	m.Trans = append(m.Trans,
		Transition{State: drain, C1: IfPos, Next: drain, Op1: Dec},
		Transition{State: drain, C1: IfZero, Next: n + 2},
	)
	return m
}

// Diverging returns a machine that pumps c1 forever and never reaches
// its halting state.
func Diverging() *Machine {
	return &Machine{
		States: 2,
		Halt:   1,
		Trans: []Transition{
			{State: 0, Next: 0, Op1: Inc},
		},
	}
}
