package qtree

import (
	"context"
	"errors"
	"testing"

	"repro/internal/parser"
)

func TestOptimizeCtxCancelled(t *testing.T) {
	p := parser.MustParseProgram(`
		p(X, Y) :- a(X, Y).
		p(X, Y) :- a(X, Z), p(Z, Y).
		?- p.
	`)
	ics := parser.MustParseICs(`:- a(X, Y), b(Y, Z).`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OptimizeCtx(ctx, p, ics, DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestOptimizeCtxLiveMatchesOptimize(t *testing.T) {
	p := parser.MustParseProgram(`
		p(X, Y) :- a(X, Y).
		p(X, Y) :- b(X, Y).
		p(X, Y) :- a(X, Z), p(Z, Y).
		p(X, Y) :- b(X, Z), p(Z, Y).
		?- p.
	`)
	ics := parser.MustParseICs(`:- a(X, Y), b(Y, Z).`)
	plain, err := OptimizeCtx(context.Background(), p, ics, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctxed, err := OptimizeCtx(live, p, ics, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Program.String() != ctxed.Program.String() {
		t.Fatalf("programs diverged:\n%s\nvs\n%s", plain.Program, ctxed.Program)
	}
	if plain.Tree.Print() != ctxed.Tree.Print() {
		t.Fatal("query forests diverged")
	}
}
