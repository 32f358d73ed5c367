package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	sqo "repro"
	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/server"
	"repro/internal/store"
)

// Per-layer micro-benchmarks: the unit costs ROADMAP asks to track, by
// name. Reported (go test -bench . from this directory), not gated.

const tcLeftSrc = tcRules + "?- path.\n"

func mustProgram(b *testing.B, src string) *ast.Program {
	b.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func mustDelta(b *testing.B) *eval.DeltaProgram {
	b.Helper()
	dp, err := eval.CompileDeltaProgram(mustProgram(b, tcLeftSrc))
	if err != nil {
		b.Fatal(err)
	}
	return dp
}

// chainRel interns edge(i, i+1) for i < n into a fresh relation.
func chainRel(b *testing.B, dp *eval.DeltaProgram, n int) *eval.IRel {
	b.Helper()
	rel := dp.NewIRel(2)
	var buf []uint32
	for i := 0; i < n; i++ {
		row, err := dp.InternFact("edge", []ast.Term{num(i), num(i + 1)}, buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		rel.Add(row)
		buf = row
	}
	return rel
}

// BenchmarkIRelAdd is dedup-on-insert into the engine's row store:
// half the inserts are new rows, half are duplicates.
func BenchmarkIRelAdd(b *testing.B) {
	dp := mustDelta(b)
	const n = 10000
	src := chainRel(b, dp, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel := dp.NewIRel(2)
		for j := 0; j < n; j++ {
			rel.Add(src.Row(j))
			rel.Add(src.Row(j / 2))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(2*n), "ns/insert")
}

func BenchmarkIRelContains(b *testing.B) {
	dp := mustDelta(b)
	const n = 10000
	rel := chainRel(b, dp, n)
	miss := []uint32{0, 0}
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if rel.Contains(rel.Row(i % n)) {
			hits++
		}
		if rel.Contains(miss) {
			hits--
		}
	}
	if hits != b.N {
		b.Fatalf("%d hits in %d probes", hits, b.N)
	}
}

func BenchmarkDeltaProgramInternFact(b *testing.B) {
	dp := mustDelta(b)
	args := make([][]ast.Term, 1024)
	for i := range args {
		args[i] = []ast.Term{num(i), num(i + 1)}
	}
	var buf []uint32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := dp.InternFact("edge", args[i%len(args)], buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		buf = row
	}
}

func BenchmarkCompileDeltaProgram(b *testing.B) {
	p := mustProgram(b, viewSrc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.CompileDeltaProgram(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunDeltaJoinStep is one semi-naive join step of
// path(X, Y) :- path(X, Z), edge(Z, Y): a 1000-row delta of path
// probing a 1000-edge chain through its index.
func BenchmarkRunDeltaJoinStep(b *testing.B) {
	dp := mustDelta(b)
	const n = 1000
	edges := chainRel(b, dp, n)
	delta := dp.NewIRel(2)
	for i := 0; i < n; i++ {
		delta.Add(edges.Row(i))
	}
	subs := []eval.RelView{delta.View(), edges.View()}
	ctx := context.Background()
	var probes, firings int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := dp.RunDelta(ctx, 1, 0, subs, nil, func([]uint32) error { firings++; return nil })
		if err != nil {
			b.Fatal(err)
		}
		probes += p
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(probes), "ns/probe")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(firings), "ns/derived")
}

func BenchmarkStoreAppendFacts(b *testing.B) {
	for _, policy := range []store.FsyncPolicy{store.FsyncAlways, store.FsyncInterval, store.FsyncNever} {
		b.Run(policy.String(), func(b *testing.B) {
			st, _, err := store.Open(b.TempDir(), store.Options{Fsync: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			if err := st.AppendDatasetCreate(dsName, baseFacts(false)); err != nil {
				b.Fatal(err)
			}
			created := st.Counters().Bytes
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fact := atoms("edge", []int{nodeID(i%numChains, 0), nodeID(i%numChains, leafBase+i%numLeaves)})
				var err error
				if i%2 == 0 {
					err = st.AppendFacts(dsName, fact, nil)
				} else {
					err = st.AppendFacts(dsName, nil, fact)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Counters().Bytes-created)/float64(b.N), "walB/op")
		})
	}
}

func BenchmarkServerCacheKey(b *testing.B) {
	p := mustProgram(b, pointSrc(1234))
	ics, err := parser.ParseICs(tcICs)
	if err != nil {
		b.Fatal(err)
	}
	opts := sqo.DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(server.CacheKey(p, ics, opts)) != 64 {
			b.Fatal("short key")
		}
	}
}

// chainTuples returns the first n path tuples of a long chain.
func chainTuples(n int) []eval.Tuple {
	out := make([]eval.Tuple, 0, n)
	for i := 0; len(out) < n; i++ {
		for j := i + 1; j <= i+100 && len(out) < n; j++ {
			out = append(out, eval.Tuple{num(i), num(j)})
		}
	}
	return out
}

// BenchmarkAnswerSortEncode is the tail of a query response: render
// each tuple, sort, write indented JSON.
func BenchmarkAnswerSortEncode(b *testing.B) {
	for _, n := range []int{100, 10000} {
		b.Run(fmt.Sprintf("tuples=%d", n), func(b *testing.B) {
			tuples := chainTuples(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := queryMirror{Query: "path", Answers: renderTuples(tuples)}
				sort.Strings(m.Answers)
				m.AnswerCount = len(m.Answers)
				var buf bytes.Buffer
				enc := json.NewEncoder(&buf)
				enc.SetIndent("", "  ")
				if err := enc.Encode(&m); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/tuple")
		})
	}
}

// BenchmarkViewAnswers reads a materialized view of about 10k tuples.
func BenchmarkViewAnswers(b *testing.B) {
	view, err := sqo.Materialize(mustProgram(b, tcLeftSrc), sqo.NewDBFrom(chainFacts(140)), sqo.ViewOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		tuples, err := view.Answers()
		if err != nil {
			b.Fatal(err)
		}
		n = len(tuples)
	}
	if n != 140*141/2 {
		b.Fatalf("view has %d answers", n)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/tuple")
}
