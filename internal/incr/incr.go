// Package incr maintains materialized datalog views incrementally.
//
// MaterializeCtx evaluates a program once and keeps the result live:
// View.Apply takes a batch of EDB fact insertions and retractions and
// updates every derived relation by propagating deltas instead of
// re-running the fixpoint, reusing the compiled join plans of
// internal/eval through its exported delta surface (eval.DeltaProgram).
// This serves the workload shape the paper assumes: the semantic
// rewrite is computed once and stays valid as the EDB changes, so the
// expensive static side (rewriting) and the expensive dynamic side
// (re-evaluation) are both amortized.
//
// Every stratum (a strongly connected component of the IDB dependency
// graph, recursive or not) is maintained by one algorithm, DRed
// (delete-rederive): (1) overdelete — propagate deletions through the
// stratum's rules over pre-update state, collecting every tuple with a
// potentially-lost derivation; (2) rederive — put back overdeleted
// tuples still derivable from the surviving state, using head-bound
// derivability plans (eval.Derivable) seeded with the candidate tuple;
// (3) insert — semi-naive propagation of the gained tuples. A stratum
// without recursion is the case where each phase ends after one round.
//
// Updates that touch a negated predicate fall back to a full rebuild
// (DRed as implemented assumes the delta rules are monotone; negation
// is EDB-only and rare in rewritten programs). A failed or cancelled
// Apply leaves the view marked broken with its EDB already final; the
// next operation repairs it by rebuilding, so no sequence of failures
// can produce wrong answers — only retried work.
package incr

import (
	"context"
	"encoding/binary"
	"sort"
	"sync"

	"repro/internal/ast"
	"repro/internal/eval"
)

// Options configures MaterializeCtx.
type Options struct {
	// MaxTuples bounds the number of IDB tuples materialized during the
	// initial fixpoint and any full rebuild (0 = unlimited). Exceeding
	// it returns an error wrapping eval.ErrBudget.
	MaxTuples int64
}

// Stats reports the cumulative work a view has done. Delta passes
// account join probes through the same counter semantics as
// eval.Stats.JoinProbes, which is what makes incremental and full runs
// comparable.
type Stats struct {
	InitRounds     int   // fixpoint rounds during MaterializeCtx
	InitTuples     int64 // IDB tuples derived during MaterializeCtx
	InitProbes     int64 // join probes during MaterializeCtx
	Applies        int64 // Apply calls that completed successfully
	FullRebuilds   int64 // applies (or repairs) that recomputed from scratch
	DeltaRounds    int64 // delta propagation rounds across all applies
	DeltaProbes    int64 // join probes across all delta passes
	RederiveChecks int64 // head-bound derivability checks (DRed phase 2)
	TuplesAdded    int64 // net answers added to the query predicate across applies
	TuplesRemoved  int64 // net answers removed from the query predicate across applies
}

// Changes reports the net effect of one Apply on the query predicate:
// answers that appeared and answers that disappeared, each sorted by
// canonical tuple key.
type Changes struct {
	Added   []eval.Tuple
	Removed []eval.Tuple
}

// View is a materialized program kept consistent with a mutable EDB.
// All methods are safe for concurrent use; writes serialize.
type View struct {
	mu    sync.Mutex
	prog  *ast.Program
	dp    *eval.DeltaProgram
	idbPr map[string]bool
	arity map[string]int
	// negPreds are the (EDB) predicates appearing under negation;
	// updates touching them force a full rebuild.
	negPreds map[string]bool
	strata   []stratum
	rulesFor map[string][]int
	// rels holds every predicate, EDB and IDB, as interned relations
	// that live as long as the IDB does (rebuildIDB starts the derived
	// ones over). A tuple a predicate loses is marked dead in place; the
	// pre-update state an Apply reads is the same relation at the epoch
	// before (eval.IRel.Freeze), and finishApply compacts between Applies.
	rels  map[string]*eval.IRel
	opts  Options
	stats Stats
	// broken is set when an Apply fails after the EDB was updated: the
	// IDB is stale and the next operation must rebuild. The EDB irels
	// are always final for every successfully-ingested delta.
	broken bool
	// lastGood snapshots the query relation as of the last consistent
	// state, so the repairing Apply can report Changes relative to what
	// the caller last saw. Only set while broken.
	lastGood eval.RelView
}

// MaterializeCtx evaluates p over edb and returns a live view; ctx is
// checked at round barriers and inside long joins.
func MaterializeCtx(ctx context.Context, p *ast.Program, edb *eval.DB, opts Options) (*View, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	dp, err := eval.CompileDeltaProgram(p)
	if err != nil {
		return nil, err
	}
	arity, err := p.PredArity()
	if err != nil {
		return nil, err
	}
	v := &View{
		prog:     p,
		dp:       dp,
		idbPr:    p.IDB(),
		arity:    arity,
		negPreds: map[string]bool{},
		rulesFor: map[string][]int{},
		rels:     map[string]*eval.IRel{},
		opts:     opts,
	}
	for i, r := range p.Rules {
		v.rulesFor[r.Head.Pred] = append(v.rulesFor[r.Head.Pred], i)
		for _, a := range r.Neg {
			v.negPreds[a.Pred] = true
		}
	}
	v.strata = buildStrata(p)
	// Intern the EDB in sorted-predicate order (deterministic ids).
	preds := make([]string, 0, len(arity))
	for pred := range arity {
		if !v.idbPr[pred] {
			preds = append(preds, pred)
		}
	}
	sort.Strings(preds)
	var buf []uint32
	for _, pred := range preds {
		rel := edb.Lookup(pred)
		if rel == nil {
			continue
		}
		ir := dp.NewIRel(arity[pred])
		for _, t := range rel.Tuples() {
			buf, err = dp.InternFact(pred, t, buf[:0])
			if err != nil {
				return nil, err
			}
			ir.Add(buf)
		}
		v.rels[pred] = ir
	}
	if err := v.rebuildIDB(ctx); err != nil {
		return nil, err
	}
	return v, nil
}

// rebuildIDB recomputes every IDB relation from the view's current EDB
// irels: join orders chosen for the EDB's current lengths, as the engine
// would choose them, fresh empty IDB relations, and the engine's own
// fixpoint over them (eval.DeltaProgram.Fixpoint, which reads each EDB
// relation through its View, tombstones hidden). The delta passes of
// later Applies keep these orders until the next rebuild. Callers hold
// v.mu (or own the view exclusively, as MaterializeCtx does).
func (v *View) rebuildIDB(ctx context.Context) error {
	v.dp.OrderJoins(func(pred string) int { return v.rels[pred].Len() })
	for pred := range v.idbPr {
		v.rels[pred] = v.dp.NewIRel(v.arity[pred])
	}
	st, err := v.dp.Fixpoint(ctx, v.rels, v.opts.MaxTuples)
	if err != nil {
		return err
	}
	v.stats.InitRounds += st.Iterations
	v.stats.InitTuples += st.TuplesDerived
	v.stats.InitProbes += st.JoinProbes
	return nil
}

// curViews returns the current full view of each positive subgoal of r.
func (v *View) curViews(r ast.Rule) []eval.RelView {
	subs := make([]eval.RelView, len(r.Pos))
	for j, a := range r.Pos {
		subs[j] = v.curView(a.Pred)
	}
	return subs
}

// curView returns the current full view of a predicate (empty when the
// predicate has no relation yet).
func (v *View) curView(pred string) eval.RelView {
	return v.rels[pred].View() // nil receiver yields the empty view
}

// negView resolves negated subgoals against current state. Negation is
// EDB-only (enforced by Validate), and updates that touch a negated
// predicate never reach a delta pass (full-rebuild fallback), so
// current state equals pre-update state wherever this is called.
func (v *View) negView(pred string) eval.RelView { return v.curView(pred) }

// Program returns the materialized program.
func (v *View) Program() *ast.Program { return v.prog }

// Stats returns a snapshot of the view's cumulative counters.
func (v *View) Stats() Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.stats
}

// Answers returns the query predicate's current tuples sorted by
// canonical key, repairing the view first if a previous Apply failed
// midway. The error is non-nil only when that repair itself fails.
func (v *View) Answers() ([]eval.Tuple, error) {
	return v.FactsOf(v.prog.Query)
}

// Result copies the query predicate's current rows out as an
// eval.Result, repairing the view first like Answers. The copy is all
// that happens under the view's lock: ordering, rendering and writing
// the answers — to a socket, say — then run while the next Apply does.
func (v *View) Result() (*eval.Result, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.repairLocked(context.Background()); err != nil {
		return nil, err
	}
	return v.dp.Result(v.curView(v.prog.Query)), nil
}

// FactsOf returns any predicate's current tuples sorted by canonical
// key (EDB predicates reflect every ingested delta).
func (v *View) FactsOf(pred string) ([]eval.Tuple, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.repairLocked(context.Background()); err != nil {
		return nil, err
	}
	return v.dp.SortedTuples(v.curView(pred)), nil
}

// rowKey packs an interned row into a string map key.
func rowKey(row []uint32) string {
	b := make([]byte, len(row)*4)
	for i, x := range row {
		binary.LittleEndian.PutUint32(b[i*4:], x)
	}
	return string(b)
}
