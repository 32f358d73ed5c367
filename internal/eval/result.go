package eval

import (
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/ast"
)

// Result is the answer set of one evaluation (QueryResultCtx) or the
// contents of a maintained relation at one moment (DeltaProgram.Result),
// still as interned rows: a caller that writes the answers out needs each
// distinct constant rendered once and the rows put in order, not a
// []ast.Term and a string per tuple.
//
// It retains the answers' flat rows (the query relation's own row store
// when every row is an answer) and the interner the ids belong to (for a
// query: the evaluation's overlay over the frozen interner of the
// database's base) — nothing else of the evaluation: its dedup sets,
// indexes and other relations are garbage once the Result is all that is
// left. Its answers are immutable: nothing they point to is written
// after it is returned (it reads its interner and never fills the
// interner's key cache), so it may be read from several goroutines, held
// across later updates of its database, and outlive that database's
// snapshot. Its one written field is the ordering Ordered computes,
// published whole through an atomic pointer: a Result written out again
// in the same Order, as a memoized answer is (Prepared.Run), is a walk.
type Result struct {
	in    *interner // nil: the query predicate derived nothing that matched
	arity int
	data  []uint32 // the answers in insertion order, arity values each
	n     int
	// ordered is the last Order's ordering, nil before the first.
	ordered atomic.Pointer[ordering]
}

// ordering is what order returns for o.
type ordering struct {
	o      Order
	perm   []int32
	cells  []uint32
	consts []constant
}

// Len returns the number of answers.
func (r *Result) Len() int { return r.n }

// Tuples converts the answers to tuples, in insertion order; nil when the
// query predicate derived nothing that matched its goal. The conversion —
// the largest allocation of an evaluation, which is why it waits to be
// asked for — happens on every call: keep the slice.
func (r *Result) Tuples() []Tuple {
	if r.in == nil {
		return nil
	}
	return r.tuplesIn(nil)
}

// tuplesIn converts the answers listed by perm (nil: all, in insertion
// order) to tuples that share one backing array. No key string is built:
// a Relation renders its key set on the first Contains or Add.
func (r *Result) tuplesIn(perm []int32) []Tuple {
	out := make([]Tuple, r.n)
	terms := make([]ast.Term, r.n*r.arity)
	for i := range out {
		a := i
		if perm != nil {
			a = int(perm[i])
		}
		t := terms[i*r.arity : (i+1)*r.arity : (i+1)*r.arity]
		for j, id := range r.data[a*r.arity : (a+1)*r.arity] {
			t[j] = r.in.term(id)
		}
		out[i] = t
	}
	return out
}

// Order is a way of writing a tuple as a string — open, the constants'
// renderings joined by sep, end — and with it an order of a result's
// answers: that of the strings.
type Order struct {
	open, sep, end string
	key            bool // constants render as Term.Key, not Term.String
}

var (
	// ByString is the order of Tuple.String: the answers of /v1/query.
	ByString = Order{open: "(", sep: ", ", end: ")"}
	// ByKey is the order of Tuple.Key: a view's answers and Changes.
	ByKey = Order{sep: "\x01", key: true}
)

// constant is one distinct constant of a result: its Term.String and the
// rendering it is ordered by.
type constant struct{ by, str string }

// order returns the answers' positions in the order o, the answers
// rewritten as ranks (cells: arity per answer, in insertion order) and
// the constants by rank.
//
// Each distinct constant is rendered once — a number's String is its Key
// less the "#" (both are FormatFloat 'g'), and the interner's frozen level
// has every Key already, so a database's numbers are never formatted
// again — and ranked by rendering; then a counting sort per column, last
// column first, orders the rows: linear, no string compared after the
// constants themselves.
//
// Ranks decide the order of the tuples' strings, with one exception. At
// the first column where two tuples differ, with renderings a and b: if
// neither is a prefix of the other the strings differ the way a and b do;
// if b = a+x they compare as (separator or closer) against x[0], and the
// ranks say a < b — right exactly when x[0] sorts above both. So ranks
// decide unless some rendering extends another with a byte at or below
// the separator, and since renderings are sorted, an offending pair, if
// there is one, includes an adjacent one (a's successor shares a's prefix
// with b and sorts no later): rankDecides is one pass. Under ByString no
// pair can offend: after a complete bare identifier only [A-Za-z0-9_] can
// follow, after a complete FormatFloat('g') number only a digit, '.' or
// 'e' ('+' and '-' follow only an 'e', which ends no number) — all above
// ',' and ')' — and a %q string is no proper prefix of another, its
// closing quote being the first unescaped one in both
// (TestRankOrderIsStringOrder). Under ByKey a string constant may hold a
// \x00 or \x01; then the tuples' strings themselves are sorted.
func (r *Result) order(o Order) (perm []int32, cells []uint32, consts []constant) {
	cells = make([]uint32, 0, r.n*r.arity)
	// id → first-seen number + 1 (0: unseen), in a table over the id space
	// when that is at most denseIDs ids per cell, in a map otherwise.
	var dense []uint32
	var first map[uint32]uint32
	if space := r.in.size(); space <= denseIDs*cap(cells) {
		dense = make([]uint32, space)
	} else {
		first = map[uint32]uint32{}
	}
	for _, id := range r.data[:r.n*r.arity] {
		var k uint32
		if dense != nil {
			k = dense[id]
		} else {
			k = first[id]
		}
		if k == 0 {
			k = uint32(len(consts)) + 1
			if dense != nil {
				dense[id] = k
			} else {
				first[id] = k
			}
			t, key := r.in.term(id), r.in.renderedKey(id) // "" unless rendered before the Result was taken
			if key == "" {
				key = t.Key()
			}
			c := constant{by: key, str: key[1:]}
			if t.Kind != ast.Num {
				c.str = t.String()
			}
			if !o.key {
				c.by = c.str
			}
			consts = append(consts, c)
		}
		cells = append(cells, k-1)
	}
	seq := make([]uint32, len(consts)) // first-seen numbers in rank order
	for k := range seq {
		seq[k] = uint32(k)
	}
	sort.Slice(seq, func(i, j int) bool { return consts[seq[i]].by < consts[seq[j]].by })
	ranked, rank := make([]constant, len(consts)), make([]uint32, len(consts))
	for rk, k := range seq {
		ranked[rk], rank[k] = consts[k], uint32(rk)
	}
	for i, k := range cells {
		cells[i] = rank[k]
	}

	perm = make([]int32, r.n)
	for i := range perm {
		perm[i] = int32(i)
	}
	if !rankDecides(ranked, o) {
		strs, parts := make([]string, r.n), make([]string, r.arity)
		for i := range strs {
			for j, k := range cells[i*r.arity : (i+1)*r.arity] {
				parts[j] = ranked[k].by
			}
			strs[i] = o.open + strings.Join(parts, o.sep) + o.end
		}
		sort.Slice(perm, func(i, j int) bool { return strs[perm[i]] < strs[perm[j]] })
		return perm, cells, ranked
	}
	tmp, count := make([]int32, r.n), make([]int32, len(ranked)+1)
	for j := r.arity - 1; j >= 0; j-- {
		clear(count)
		for i := 0; i < r.n; i++ {
			count[cells[i*r.arity+j]+1]++
		}
		for k := 1; k < len(count); k++ {
			count[k] += count[k-1]
		}
		for _, a := range perm {
			k := cells[int(a)*r.arity+j]
			tmp[count[k]] = a
			count[k]++
		}
		perm, tmp = tmp, perm
	}
	return perm, cells, ranked
}

// denseIDs is how many ids per answer cell order's first-seen table may
// span before it becomes a map.
const denseIDs = 4

// rankDecides reports whether no rendering of the sorted constants
// extends its predecessor with a byte at or below o's separator and
// closer (see order).
func rankDecides(sorted []constant, o Order) bool {
	floor := o.sep[0]
	if o.end != "" && o.end[0] > floor {
		floor = o.end[0]
	}
	for i := 1; i < len(sorted); i++ {
		prev, cur := sorted[i-1].by, sorted[i].by
		if len(cur) > len(prev) && cur[:len(prev)] == prev && cur[len(prev)] <= floor {
			return false
		}
	}
	return true
}

// Ordered calls visit once per answer, in the order o, with cols[j] the
// Term.String of column j passed through enc (nil: as it is). enc runs
// once per distinct constant, not per occurrence — a JSON escaper costs
// what the vocabulary costs — into one arena. visit must not keep cols
// or write through it; returning false ends the walk. The order is
// computed by the first call with o and kept until a call with another
// Order replaces it.
func (r *Result) Ordered(o Order, enc func(dst []byte, text string) []byte, visit func(cols [][]byte) bool) {
	if r.n == 0 {
		return
	}
	od := r.ordered.Load()
	if od == nil || od.o != o {
		od = &ordering{o: o}
		od.perm, od.cells, od.consts = r.order(o)
		r.ordered.Store(od)
	}
	perm, cells, consts := od.perm, od.cells, od.consts
	arena, offs := []byte(nil), make([]int, len(consts)+1)
	for k, c := range consts {
		if enc != nil {
			arena = enc(arena, c.str)
		} else {
			arena = append(arena, c.str...)
		}
		offs[k+1] = len(arena)
	}
	cols := make([][]byte, r.arity)
	for _, a := range perm {
		for j, k := range cells[int(a)*r.arity : (int(a)+1)*r.arity] {
			cols[j] = arena[offs[k]:offs[k+1]:offs[k+1]]
		}
		if !visit(cols) {
			return
		}
	}
}
