package eval

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/parser"
)

// Small relations stay below the spill threshold, so estimates are
// exact — the property that makes cost ordering trustworthy on the
// rule-sized relations differential tests use.
func TestSketchExactOnSmallRelations(t *testing.T) {
	r := newIrel(2, 0)
	for i := uint32(0); i < 100; i++ {
		r.add([]uint32{i, i % 10})
	}
	if got := r.distinct(0); got != 100 {
		t.Fatalf("distinct(0) = %d, want exactly 100", got)
	}
	if got := r.distinct(1); got != 10 {
		t.Fatalf("distinct(1) = %d, want exactly 10", got)
	}
	// Duplicate rows never reach add (irel dedups), but duplicate
	// column values across distinct rows must not inflate the count.
	if !r.whole().Contains([]uint32{5, 5}) {
		t.Fatal("setup: row (5,5) missing")
	}
}

func TestSketchEmptyAndZeroArity(t *testing.T) {
	if got := newIrel(3, 0).distinct(1); got != 0 {
		t.Fatalf("empty relation distinct = %d, want 0", got)
	}
	z := newIrel(0, 0)
	z.add(nil) // must not panic on the zero-column row
	if z.n != 1 {
		t.Fatalf("zero-arity add failed: n=%d", z.n)
	}
}

// Skewed data: one heavy hitter next to a wide column. The heavy
// column must stay exact (1 distinct value never spills); the wide
// column spills and must estimate within linear counting's error
// bounds.
func TestSketchBoundedErrorOnSkewedData(t *testing.T) {
	r := newIrel(2, 0)
	const rows = 20000
	for i := uint32(0); i < rows; i++ {
		r.add([]uint32{7, i})
	}
	if got := r.distinct(0); got != 1 {
		t.Fatalf("constant column distinct = %d, want exactly 1", got)
	}
	got := float64(r.distinct(1))
	if err := math.Abs(got-rows) / rows; err > 0.25 {
		t.Fatalf("distinct(1) = %v, want within 25%% of %d (err %.1f%%)", got, rows, 100*err)
	}
}

// Accuracy across the load range the planner actually sees: from just
// past the spill threshold to several distinct values per sketch bit.
func TestSketchAccuracySweep(t *testing.T) {
	for _, n := range []int{200, 1000, 4096, 15000} {
		r := newIrel(1, 0)
		for i := 0; i < n; i++ {
			// Spread values so bucket collisions come from hashing, not
			// from adversarial input structure.
			r.add([]uint32{uint32(i * 2654435761)})
		}
		got := float64(r.distinct(0))
		if err := math.Abs(got-float64(n)) / float64(n); err > 0.25 {
			t.Fatalf("n=%d: distinct = %v (err %.1f%%, want <25%%)", n, got, 100*err)
		}
	}
}

// The sketch must keep counting monotonically through the exact→spill
// transition (no values lost at the boundary).
func TestSketchSpillTransition(t *testing.T) {
	r := newIrel(1, 0)
	prev := 0
	for i := 0; i < sketchExactMax*4; i++ {
		r.add([]uint32{uint32(i) * 2654435761})
		got := r.distinct(0)
		if got < prev {
			t.Fatalf("estimate regressed at i=%d: %d -> %d", i, prev, got)
		}
		prev = got
	}
	if prev < sketchExactMax*3 {
		t.Fatalf("estimate after spill too low: %d", prev)
	}
}

// Saturation guard: more distinct values than the sketch can resolve
// must return a large finite estimate, not panic or zero.
func TestSketchSaturation(t *testing.T) {
	c := &ColSketch{}
	for i := 0; i < sketchBuckets*16; i++ {
		c.Add(uint32(i)*2654435761 + 12345)
	}
	if got := c.Distinct(); got < sketchBuckets {
		t.Fatalf("saturated sketch distinct = %d, want >= %d", got, sketchBuckets)
	}
}

// Encode/decode round trip in both modes, and Equal discriminating
// mode, content, and membership differences — the properties the
// segment format of internal/store leans on.
func TestSketchEncodeRoundTrip(t *testing.T) {
	exact := &ColSketch{}
	for i := uint32(0); i < 50; i++ {
		exact.Add(i * 7)
	}
	spilled := &ColSketch{}
	for i := uint32(0); i < sketchExactMax*3; i++ {
		spilled.Add(i * 2654435761)
	}
	for _, c := range []*ColSketch{{}, exact, spilled} {
		enc := c.AppendEncoded(nil)
		dec, n, err := DecodeColSketch(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(enc) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(enc))
		}
		if !c.Equal(&dec) || !dec.Equal(c) {
			t.Fatalf("round trip not Equal (distinct %d vs %d)", c.Distinct(), dec.Distinct())
		}
	}
	if exact.Equal(spilled) {
		t.Fatal("exact and spilled sketches must differ")
	}
	other := &ColSketch{}
	for i := uint32(0); i < 50; i++ {
		other.Add(i*7 + 1)
	}
	if exact.Equal(other) {
		t.Fatal("different exact sets must not be Equal")
	}
	if _, _, err := DecodeColSketch(nil); err == nil {
		t.Fatal("decoding empty input must error")
	}
	if _, _, err := DecodeColSketch([]byte{sketchModeSpilled, 1, 2}); err == nil {
		t.Fatal("truncated bit table must error")
	}
}

// TestSketchCatchUpInvisible: an irel never updates its sketches on
// insert; it folds the rows added since the last read in when an
// estimate is asked for. Over 1,000 seeded interleavings of inserts and
// estimate reads — with value ranges on both sides of sketchExactMax, so
// catch-ups straddle the spill — the sketches must equal, in state and
// in encoded bytes, sketches fed eagerly on every new row.
func TestSketchCatchUpInvisible(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newIrel(2, 0)
		eager := make([]ColSketch, 2)
		// Column 0 stays exact on even seeds and spills on odd ones;
		// column 1 spills whenever the run is long enough.
		span0 := uint32(sketchExactMax/2 + int(seed%2)*sketchExactMax*2)
		check := func(when string) {
			if r.n == 0 {
				return // no rows, no sketches yet
			}
			got := r.sketches()
			for j := range eager {
				if r.distinct(j) != eager[j].Distinct() || !got[j].Equal(&eager[j]) ||
					!bytes.Equal(got[j].AppendEncoded(nil), eager[j].AppendEncoded(nil)) {
					t.Fatalf("seed %d, %s, column %d: lazy sketch (distinct %d) differs from eager (distinct %d) after %d rows",
						seed, when, j, r.distinct(j), eager[j].Distinct(), r.n)
				}
			}
		}
		for op, ops := 0, 50+rng.Intn(400); op < ops; op++ {
			if rng.Intn(20) == 0 {
				check("mid-run read")
				continue
			}
			row := []uint32{rng.Uint32() % span0, rng.Uint32() % 1000}
			if r.add(row) {
				eager[0].Add(row[0])
				eager[1].Add(row[1])
			}
		}
		check("final read")
	}
}

// TestSketchCatchUpConcurrentFirstRead: the EDB base is shared by every
// evaluation of a DB, and under the cost policy each of them asks its
// relations for estimates — the first to ask folds the rows in. Eight
// evaluations racing for that first read must agree on everything (run
// under -race in CI).
func TestSketchCatchUpConcurrentFirstRead(t *testing.T) {
	p := parser.MustParseProgram(`
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, Z), edge(Z, Y).
		hop(X, Z) :- edge(X, Y), edge(Y, Z), X < Z.
		?- path.`)
	// 6 x 40 edges: both columns spill. A greedy evaluation builds the
	// base and reads no sketch.
	db := disjointChainsDB(6, 40)
	if _, _, err := Eval(p, db); err != nil {
		t.Fatal(err)
	}
	want := runEngine(t, p, db.Clone(), Options{Seminaive: true, Policy: PolicyCost})
	runs := make([]engineRun, 8)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			idb, stats, err := EvalCtx(context.Background(), p, db, Options{Seminaive: true, Policy: PolicyCost})
			if err != nil {
				t.Error(err)
				return
			}
			runs[i] = engineRun{preds: map[string][]string{}, stats: *stats}
			for _, pred := range idb.Preds() {
				runs[i].preds[pred] = idb.SortedFacts(pred)
			}
		}(i)
	}
	wg.Wait()
	for i, r := range runs {
		if !reflect.DeepEqual(r.preds, want.preds) || !r.stats.Equal(&want.stats) || r.stats.PlansCompiled != want.stats.PlansCompiled {
			t.Fatalf("goroutine %d: answers or stats differ from a single evaluation over a fresh clone:\n%+v\nvs\n%+v", i, r.stats, want.stats)
		}
	}
}
