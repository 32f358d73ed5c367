package incr

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
)

// TestResultIsReadWhileTheViewMoves: View.Result copies under the view's
// lock and is read — ordered both ways, converted — outside it, while
// Applies keep adding rows, retracting them and interning constants the
// view has never seen. Each Result must keep reading as the view stood
// when it was taken (its walk equals its own Tuples in Tuple.Key order),
// and the race detector must have nothing to say about the interner
// prefix and key cache the two sides share.
func TestResultIsReadWhileTheViewMoves(t *testing.T) {
	prog := parser.MustParseProgram(`path(X, Y) :- edge(X, Y). path(X, Y) :- path(X, Z), edge(Z, Y). ?- path.`)
	db := eval.NewDB()
	for i := 0; i < 20; i++ {
		db.AddFact(ast.NewAtom("edge", ast.N(float64(i)), ast.N(float64(i+1))))
	}
	v, err := MaterializeCtx(context.Background(), prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := v.Result()
				if err != nil {
					t.Error(err)
					return
				}
				var walk []string
				res.Ordered(eval.ByKey, nil, func(cols [][]byte) bool {
					walk = append(walk, fmt.Sprintf("(%s, %s)", cols[0], cols[1]))
					return true
				})
				want := res.Tuples()
				sort.Slice(want, func(i, j int) bool { return want[i].Key() < want[j].Key() })
				if len(walk) != res.Len() || len(want) != res.Len() {
					t.Errorf("walk of %d, %d tuples, Len %d", len(walk), len(want), res.Len())
					return
				}
				for i := range walk {
					if walk[i] != want[i].String() {
						t.Errorf("answer %d of a held Result: walked %s, Tuples has %s", i, walk[i], want[i])
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		leaf := []ast.Atom{ast.NewAtom("edge", ast.N(float64(i%21)), ast.S(fmt.Sprintf("leaf%d", i)))}
		if _, err := v.Apply(leaf, nil); err != nil {
			t.Fatal(err)
		}
		if i%3 != 0 {
			if _, err := v.Apply(nil, leaf); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}
