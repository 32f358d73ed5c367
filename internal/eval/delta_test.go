package eval

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/parser"
)

// The tombstone semantics of IRel against a rebuild oracle. Removal
// used to be a rebuild — copy the relation minus the dropped rows into a
// fresh one and keep the old object for the pre-update readers
// (incr's rebuildExcluding). That behaviour is the reference here: the
// model below holds every version as its own plain list of rows, and a
// version is checked by rebuilding it into a relation that never had a
// row removed and asking both the same questions.

// relModel is what an IRel must look like from outside: the live rows,
// and the rows of the frozen view still held (a relation keeps one
// frozen generation, the one an update in progress reads).
type relModel struct {
	live   [][]uint32
	frozen *frozenView
}

type frozenView struct {
	view RelView
	rows [][]uint32
}

// rowKey orders and compares the two-column rows of these tests.
func rowKey(row []uint32) uint64 { return uint64(row[0])<<32 | uint64(row[1]) }

func (m *relModel) index(row []uint32) int {
	for i, r := range m.live {
		if rowKey(r) == rowKey(row) {
			return i
		}
	}
	return -1
}

// rebuilt is the oracle's relation for one version: the rows, in order,
// in a relation nothing was ever removed from.
func rebuilt(dp *DeltaProgram, rows [][]uint32) RelView {
	ir := dp.NewIRel(2)
	for _, r := range rows {
		ir.Add(r)
	}
	return ir.View()
}

func eachRows(v RelView) [][]uint32 {
	var out [][]uint32
	v.Each(func(row []uint32) { out = append(out, append([]uint32(nil), row...)) })
	return out
}

// joinRows runs rule ruleIdx of tombProg with r read from v and returns
// the head rows it emits, sorted, and the probes it counted. Rule 0
// reaches r through an index on its first column, rule 1 scans it.
func joinRows(t *testing.T, dp *DeltaProgram, ruleIdx int, keys, v RelView) ([]uint64, int64) {
	t.Helper()
	subs := []RelView{keys, v}
	if ruleIdx == 1 {
		subs = []RelView{v}
	}
	var out []uint64
	probes, err := dp.RunDelta(context.Background(), ruleIdx, -1, subs, nil, func(h []uint32) error {
		out = append(out, rowKey(h))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, probes
}

// requireVersion checks one view of the relation against the rows the
// model says it holds: listing (order included when ordered is set),
// membership of every row of the universe, and both join paths, probe
// counts included — a dead row is not a candidate.
func requireVersion(t *testing.T, label string, dp *DeltaProgram, keys RelView, v RelView, rows, universe [][]uint32, ordered bool) {
	t.Helper()
	got := eachRows(v)
	want := rows
	if !ordered {
		got, want = append([][]uint32(nil), got...), append([][]uint32(nil), rows...)
		for _, s := range [][][]uint32{got, want} {
			sort.Slice(s, func(i, j int) bool { return rowKey(s[i]) < rowKey(s[j]) })
		}
	}
	if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: rows\n got %v\nwant %v", label, got, want)
	}
	if v.Len() != len(rows) {
		t.Fatalf("%s: Len = %d, want %d", label, v.Len(), len(rows))
	}
	in := map[uint64]bool{}
	for _, r := range rows {
		in[rowKey(r)] = true
	}
	for _, r := range universe {
		if v.Contains(r) != in[rowKey(r)] {
			t.Fatalf("%s: Contains(%v) = %t", label, r, v.Contains(r))
		}
	}
	oracle := rebuilt(dp, rows)
	for rule, path := range []string{"index", "scan"} {
		gotRows, gotProbes := joinRows(t, dp, rule, keys, v)
		wantRows, wantProbes := joinRows(t, dp, rule, keys, oracle)
		if !reflect.DeepEqual(gotRows, wantRows) || gotProbes != wantProbes {
			t.Fatalf("%s: %s join: %d rows / %d probes, rebuilt relation gives %d / %d\n got %v\nwant %v",
				label, path, len(gotRows), gotProbes, len(wantRows), wantProbes, gotRows, wantRows)
		}
	}
}

// TestIRelTombstonesAgainstRebuild drives one relation through random
// adds, removals, freezes and compactions and checks, after every
// operation, the current view and every frozen view still held against
// the model. The two hazards of marking rows dead in place are in the
// operation mix on purpose: a row removed and put back inside one epoch
// (every frozen view must keep it, the current one regain it), and a row
// removed in one epoch and put back in a later one (the views frozen in
// between must not see it return).
func TestIRelTombstonesAgainstRebuild(t *testing.T) {
	dp, err := CompileDeltaProgram(parser.MustParseProgram(`
		q(X, Y) :- k(X), r(X, Y).
		s(X, Y) :- r(X, Y).
		?- q.`))
	if err != nil {
		t.Fatal(err)
	}
	const dom = 7
	var universe [][]uint32
	for x := uint32(0); x < dom; x++ {
		for y := uint32(0); y < dom; y++ {
			universe = append(universe, []uint32{x, y})
		}
	}
	keyRel := dp.NewIRel(1)
	for x := uint32(0); x < dom; x++ {
		keyRel.Add([]uint32{x})
	}
	keys := keyRel.View()

	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rel := dp.NewIRel(2)
		m := &relModel{}
		compactions := 0
		for step := 0; step < 2000; step++ {
			label := fmt.Sprintf("seed %d step %d", seed, step)
			row := universe[rng.Intn(len(universe))]
			switch op := rng.Intn(20); {
			case op < 8: // add
				at := m.index(row)
				if got := rel.Add(row); got != (at < 0) {
					t.Fatalf("%s: Add(%v) = %t", label, row, got)
				}
				if at < 0 {
					m.live = append(m.live, row)
				}
			case op < 16: // remove
				at := m.index(row)
				if got := rel.Remove(row); got != (at >= 0) {
					t.Fatalf("%s: Remove(%v) = %t", label, row, got)
				}
				if at >= 0 {
					m.live = append(m.live[:at:at], m.live[at+1:]...)
				}
			case op < 19: // freeze: the view before this one is void
				// The rows were checked against the model one operation
				// ago; from here on they may not change, order included.
				v := rel.Freeze()
				m.frozen = &frozenView{v, eachRows(v)}
			default: // between updates: no view is held, dead rows may go
				m.frozen = nil
				before := eachRows(rel.View())
				hi := rel.View().Hi
				rel.Compact()
				if rel.View().Hi < hi {
					compactions++
					if rel.View().Hi != rel.Len() {
						t.Fatalf("%s: %d rows after a compaction, %d live", label, rel.View().Hi, rel.Len())
					}
				}
				if after := eachRows(rel.View()); len(before) > 0 && !reflect.DeepEqual(before, after) {
					t.Fatalf("%s: Compact reordered the rows\nbefore %v\nafter  %v", label, before, after)
				}
			}
			if rel.Len() != len(m.live) {
				t.Fatalf("%s: Len = %d, want %d", label, rel.Len(), len(m.live))
			}
			// The current view lists the live rows; their order is the
			// model's except where a row came back in place.
			requireVersion(t, label+" current", dp, keys, rel.View(), m.live, universe, false)
			if f := m.frozen; f != nil {
				requireVersion(t, label+" frozen", dp, keys, f.view, f.rows, universe, true)
			}
		}
		if compactions < 3 {
			t.Fatalf("seed %d: only %d compactions in 2000 operations", seed, compactions)
		}
	}
}

// TestRelViewWindow: a view whose Lo is raised to an earlier view's Hi
// reads exactly the rows appended in between — the shape of the
// fixpoint's semi-naive delta window — on the index path, the scan path
// and as the delta occurrence, probe counts included, and leaves out a
// row of the window that was removed.
func TestRelViewWindow(t *testing.T) {
	dp, err := CompileDeltaProgram(parser.MustParseProgram(`
		q(X, Y) :- k(X), r(X, Y).
		s(X, Y) :- r(X, Y).
		?- q.`))
	if err != nil {
		t.Fatal(err)
	}
	keyRel := dp.NewIRel(1)
	for x := uint32(0); x < 5; x++ {
		keyRel.Add([]uint32{x})
	}
	rel := dp.NewIRel(2)
	for i := uint32(0); i < 20; i++ {
		rel.Add([]uint32{i % 5, i})
	}
	mark := rel.View().Hi
	var later [][]uint32
	for i := uint32(20); i < 32; i++ {
		row := []uint32{i % 5, i}
		rel.Add(row)
		if i == 25 {
			rel.Remove(row)
			continue
		}
		later = append(later, row)
	}
	rel.Remove([]uint32{1, 1}) // below the mark: the window never held it
	win := rel.View()
	win.Lo = mark
	if got := eachRows(win); !reflect.DeepEqual(got, later) {
		t.Fatalf("Each over the window\n got %v\nwant %v", got, later)
	}
	if win.Contains([]uint32{2, 2}) || win.Contains([]uint32{0, 25}) || !win.Contains([]uint32{1, 31}) {
		t.Fatal("Contains: the window holds a row from below its Lo or a removed one, or misses one of its own")
	}
	oracle := rebuilt(dp, later)
	for rule, path := range []string{"index", "scan"} {
		gotRows, gotProbes := joinRows(t, dp, rule, keyRel.View(), win)
		wantRows, wantProbes := joinRows(t, dp, rule, keyRel.View(), oracle)
		if !reflect.DeepEqual(gotRows, wantRows) || gotProbes != wantProbes {
			t.Fatalf("%s join over the window: %d rows / %d probes, a relation of the later rows gives %d / %d",
				path, len(gotRows), gotProbes, len(wantRows), wantProbes)
		}
	}
	// As the delta occurrence of rule 0 (occ 1: r), read first.
	var got, want []uint64
	for _, c := range []struct {
		v   RelView
		out *[]uint64
	}{{win, &got}, {oracle, &want}} {
		_, err := dp.RunDelta(context.Background(), 0, 1, []RelView{keyRel.View(), c.v}, nil, func(h []uint32) error {
			*c.out = append(*c.out, rowKey(h))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, want) || len(got) != len(later) {
		t.Fatalf("delta join over the window emits %v, a relation of the later rows %v", got, want)
	}
}

// TestSortedTuplesIsTupleKeyOrder: the keys SortedTuples builds from the
// interner's cached term keys are Tuple.Key's, so its order is the one
// sorting the tuples by Key gives — numbers, strings and quoted strings
// alike — and dead rows are left out.
func TestSortedTuplesIsTupleKeyOrder(t *testing.T) {
	dp, err := CompileDeltaProgram(parser.MustParseProgram(`s(X, Y) :- r(X, Y). ?- s.`))
	if err != nil {
		t.Fatal(err)
	}
	facts := parser.MustParseFacts(`
		r(10, b). r(9, a). r(2, "B c"). r(-1, 10). r(a, 2). r("2", a). r(1.5, x). r(10, a). r(x, "").`)
	rel := dp.NewIRel(2)
	var want []Tuple
	for i, f := range facts {
		row, err := dp.InternFact("r", f.Args, nil)
		if err != nil {
			t.Fatal(err)
		}
		rel.Add(row)
		if i%4 == 3 {
			rel.Remove(row)
		} else {
			want = append(want, Tuple(f.Args))
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Key() < want[j].Key() })
	if got := dp.SortedTuples(rel.View()); !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedTuples = %v, want %v", got, want)
	}
}
