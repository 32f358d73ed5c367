// Package store is sqod's persistence subsystem: a write-ahead log
// plus immutable checkpoints underneath the interned row representation
// that the compiled-plan engine evaluates over.
//
// The durable state is the mutable-dataset surface of the server —
// named datasets of ground facts and the views registered on them.
// Every mutation is appended to the WAL as one checksummed record
// (wal.go) before it is acknowledged; rows travel in the interned
// []uint32 format against a persistent symbol table. At checkpoint the
// whole state is written as a file of the same records (checkpoint.go)
// — the symbol table, then each dataset's creation, views and facts —
// after which the WAL is truncated. Recovery reads the newest checkpoint
// and then the WAL tail with one decoder; the checkpoint must decode
// completely, while a torn or corrupt tail ends the log at the last
// complete record, so an acknowledged operation is never lost and a
// partially written one never partially applies. Open hands what it
// recovered to the server as one list of operations (Recovered).
//
// The Store also maintains the recovered state in memory (datasets →
// predicates → deduplicated interned rows), which is what checkpoints
// serialize and what the crash-recovery
// differential test compares bit-for-bit against an uninterrupted
// run. Every Store has a directory: there is no in-memory mode.
package store

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/ast"
)

// FsyncPolicy selects when WAL appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append, before the operation is
	// acknowledged: an acked write survives power loss.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a timer (Options.FsyncInterval): an acked
	// write survives process death immediately but may be lost to power
	// failure within one interval.
	FsyncInterval
	// FsyncNever leaves syncing to the OS page cache.
	FsyncNever
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return "always"
	}
}

// ParseFsyncPolicy parses "always", "interval", or "never" (the empty
// string means always), for wiring the -fsync flag.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "", "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return FsyncAlways, fmt.Errorf("store: unknown fsync policy %q (want always, interval, or never)", s)
}

// Options configures a Store.
type Options struct {
	// Fsync selects the WAL durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the timer period under FsyncInterval (default
	// 100ms).
	FsyncInterval time.Duration
	// CheckpointEvery writes a checkpoint and truncates the WAL after
	// this many appended records (0 = only explicit Checkpoint calls). A
	// failed automatic checkpoint does not fail the append that ran it:
	// one that stops the store shows in Failed and the next append, any
	// other is retried after as many records again.
	CheckpointEvery int
}

// Counters is a snapshot of the store's monotonic instrumentation.
type Counters struct {
	Appends     int64 // WAL records appended
	Bytes       int64 // WAL bytes appended (framing included)
	Checkpoints int64 // checkpoints written
	// Automatic checkpoints that failed; the appends that ran them were
	// acknowledged all the same (see Options.CheckpointEvery).
	CheckpointFailures int64
}

// ViewDef is the durable description of one registered view: enough
// to rebuild it (the materialized answers themselves are derived
// state, reconstructed at recovery through the incremental-maintenance
// machinery).
type ViewDef struct {
	Name      string
	Program   string // datalog source incl. query declaration
	ICs       string // integrity constraints, source syntax
	Optimized bool   // materialize over the Levy–Sagiv rewrite
}

// OpKind discriminates recovered operations. Its values are the
// record kinds of the log (wal.go).
type OpKind int

const (
	OpDatasetCreate OpKind = iota + 1
	OpDatasetDelete
	OpFacts
	OpViewRegister
	OpViewDrop
)

// Op is one recovered operation in public (atom-level) form, replayed
// by the server in order.
type Op struct {
	Kind    OpKind
	Dataset string
	Adds    []ast.Atom // OpDatasetCreate (initial facts), OpFacts
	Dels    []ast.Atom // OpFacts
	View    ViewDef    // OpViewRegister (full), OpViewDrop (Name only)
}

// Recovered describes what Open reconstructed, as the operations that
// rebuild it: per checkpointed dataset, by name, one create carrying
// all its facts, in (predicate, row) order, then its view registrations
// by name; then the WAL tail's operations in log order.
type Recovered struct {
	Ops        []Op
	WALRecords int           // tail records replayed
	WALBytes   int64         // tail bytes replayed
	Truncated  bool          // a torn/corrupt tail was cut at the last good record
	Elapsed    time.Duration // wall clock spent in Open
}

// predState is one predicate's interned rows.
type predState struct {
	arity int
	rows  map[string][]uint32 // canonical row bytes → row
}

func newPredState(arity int) *predState {
	return &predState{arity: arity, rows: map[string][]uint32{}}
}

func rowKey(row []uint32) string {
	b := make([]byte, 0, 4*len(row))
	for _, v := range row {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// add inserts a row (set semantics). A row whose arity conflicts is
// ignored rather than allowed to corrupt state.
func (ps *predState) add(row []uint32) {
	if len(row) == ps.arity {
		ps.rows[rowKey(row)] = row
	}
}

// sortedRows returns the rows in lexicographic order.
func (ps *predState) sortedRows() [][]uint32 {
	out := make([][]uint32, 0, len(ps.rows))
	keys := make([]string, 0, len(ps.rows))
	for k := range ps.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, ps.rows[k])
	}
	return out
}

// dsState is one dataset's durable state.
type dsState struct {
	preds map[string]*predState
	views map[string]ViewDef
}

func newDsState() *dsState {
	return &dsState{preds: map[string]*predState{}, views: map[string]ViewDef{}}
}

// walFile is what the store needs of its open log, an *os.File opened
// O_APPEND: a seam for tests that fail a write or a sync.
type walFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Store is the persistence subsystem. All methods are safe for
// concurrent use; appends serialize.
//
// A failed append leaves no bytes behind: a failed write is truncated
// off the log, so the next record follows the last acknowledged one.
// When that truncate fails, or any sync of the log does — under
// FsyncAlways, on the FsyncInterval timer or before a checkpoint, after
// which nothing says what reached the disk — or a checkpoint's manifest
// write does, after which nothing says which log recovery reads, the
// store fails stop: every later append and checkpoint returns the error
// (Failed), and only a restart, recovering from what the disk holds,
// appends again.
type Store struct {
	mu   sync.Mutex
	dir  string
	opts Options

	syms     *symtab
	datasets map[string]*dsState

	wal      walFile
	walSize  int64 // bytes of wal: where the next record starts
	walName  string
	ckptName string
	seq      uint64 // generation counter for wal/checkpoint file names
	failed   error  // non-nil once the store failed stop

	// writeFile is writeFileAtomic, but in tests that fail a write.
	writeFile func(path string, data []byte) error

	appends      int64
	walBytes     int64
	checkpoints  int64
	ckptFailures int64
	sinceCkpt    int

	closed   bool
	stopSync chan struct{}
	syncDone chan struct{}
}

// Open opens (or initializes) a store rooted at dir and recovers its
// state: newest checkpoint first, then the WAL tail. An empty dir is
// an error.
func Open(dir string, opts Options) (*Store, *Recovered, error) {
	start := time.Now()
	if dir == "" {
		return nil, nil, fmt.Errorf("store: no directory")
	}
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = 100 * time.Millisecond
	}
	s := &Store{
		dir:       dir,
		opts:      opts,
		syms:      newSymtab(),
		datasets:  map[string]*dsState{},
		writeFile: writeFileAtomic,
	}
	rec := &Recovered{}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	if err := s.recover(rec); err != nil {
		return nil, nil, err
	}
	if opts.Fsync == FsyncInterval {
		s.stopSync = make(chan struct{})
		s.syncDone = make(chan struct{})
		go s.syncLoop()
	}
	rec.Elapsed = time.Since(start)
	return s, rec, nil
}

func (s *Store) syncLoop() {
	defer close(s.syncDone)
	t := time.NewTicker(s.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.mu.Lock()
			if !s.closed && s.failed == nil {
				if err := s.wal.Sync(); err != nil {
					s.failed = fmt.Errorf("store: failed stop: interval wal fsync: %w", err)
				}
			}
			s.mu.Unlock()
		case <-s.stopSync:
			return
		}
	}
}

// Counters returns a snapshot of the append/checkpoint instrumentation.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Counters{Appends: s.appends, Bytes: s.walBytes, Checkpoints: s.checkpoints, CheckpointFailures: s.ckptFailures}
}

// Failed returns the error that stopped the store, or nil while it
// appends.
func (s *Store) Failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close syncs and closes the WAL. It does not checkpoint; callers
// that want a truncated WAL on shutdown call Checkpoint first.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.wal.Sync()
	if cerr := s.wal.Close(); cerr != nil && err == nil {
		err = cerr
	}
	s.wal = nil
	stop := s.stopSync
	done := s.syncDone
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return err
}

// --- append paths -----------------------------------------------------

// AppendDatasetCreate logs dataset creation with its initial facts.
// Creating a dataset that already exists is a no-op on replay, so the
// caller resolves create races before appending.
func (s *Store) AppendDatasetCreate(name string, facts []ast.Atom) error {
	return s.append(func(st *symtab) *iop {
		return &iop{kind: opDatasetCreate, ds: st.internStr(name), adds: st.internFacts(facts)}
	})
}

// AppendDatasetDelete logs dataset removal.
func (s *Store) AppendDatasetDelete(name string) error {
	return s.append(func(st *symtab) *iop {
		return &iop{kind: opDatasetDelete, ds: st.internStr(name)}
	})
}

// AppendFacts logs one fact mutation batch: retractions then
// insertions, with an atom present in both treated as a no-op —
// exactly the server's update semantics.
func (s *Store) AppendFacts(dataset string, adds, dels []ast.Atom) error {
	return s.append(func(st *symtab) *iop {
		return &iop{
			kind: opFacts,
			ds:   st.internStr(dataset),
			adds: st.internFacts(adds),
			dels: st.internFacts(dels),
		}
	})
}

// AppendViewRegister logs view registration.
func (s *Store) AppendViewRegister(dataset string, v ViewDef) error {
	return s.append(func(st *symtab) *iop {
		return &iop{
			kind: opViewRegister, ds: st.internStr(dataset), view: st.internStr(v.Name),
			prog: v.Program, ics: v.ICs, optimized: v.Optimized,
		}
	})
}

// AppendViewDrop logs view removal.
func (s *Store) AppendViewDrop(dataset, view string) error {
	return s.append(func(st *symtab) *iop {
		return &iop{kind: opViewDrop, ds: st.internStr(dataset), view: st.internStr(view)}
	})
}

// append encodes one operation, writes it to the WAL under the fsync
// policy, applies it to the in-memory mirror, and auto-checkpoints
// when the configured record count is reached. The operation is
// durable (per the policy) when append returns nil; on error nothing
// is applied, and a failed store (see Store) returns its error. The
// auto-checkpoint's own error is not the operation's: the record is in
// the log and the mirror by then (see Options.CheckpointEvery).
func (s *Store) append(build func(*symtab) *iop) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.failed != nil {
		return s.failed
	}
	nsyms := len(s.syms.syms)
	op := build(s.syms)
	rec := appendRecord(make([]byte, 0, 256), op, s.syms.syms[nsyms:], nsyms)
	if _, err := s.wal.Write(rec); err != nil {
		s.syms.rollback(nsyms)
		err = fmt.Errorf("store: wal append: %w", err)
		// Part of the record may be in the log; recovery would stop
		// there, and every record after it would be lost.
		if terr := s.wal.Truncate(s.walSize); terr != nil {
			s.failed = fmt.Errorf("%w; failed stop: truncating the log back: %v", err, terr)
			return s.failed
		}
		return err
	}
	if s.opts.Fsync == FsyncAlways {
		if err := s.wal.Sync(); err != nil {
			// The write may or may not be durable, and its symbol ids
			// are rolled back, so a later record would redefine them:
			// only recovery can say what the log holds.
			s.syms.rollback(nsyms)
			s.failed = fmt.Errorf("store: failed stop: wal fsync: %w", err)
			return s.failed
		}
	}
	s.walSize += int64(len(rec))
	s.walBytes += int64(len(rec))
	s.appends++
	s.apply(op)
	s.sinceCkpt++
	if s.opts.CheckpointEvery > 0 && s.sinceCkpt >= s.opts.CheckpointEvery && s.checkpointLocked() != nil {
		s.ckptFailures++
	}
	return nil
}

// apply mutates the mirror. Replay calls it with decoded records, the
// live path with freshly encoded ones, so mirror state is always a
// pure function of the durable operation sequence.
func (s *Store) apply(op *iop) {
	if op.kind == opSymbols || op.kind == opEnd {
		return
	}
	name := s.syms.str(op.ds)
	switch op.kind {
	case opDatasetCreate:
		if _, ok := s.datasets[name]; ok {
			return
		}
		ds := newDsState()
		s.datasets[name] = ds
		s.applyFacts(ds, op.adds, nil)
	case opDatasetDelete:
		delete(s.datasets, name)
	case opFacts:
		if ds, ok := s.datasets[name]; ok {
			s.applyFacts(ds, op.adds, op.dels)
		}
	case opViewRegister:
		if ds, ok := s.datasets[name]; ok {
			vname := s.syms.str(op.view)
			if _, exists := ds.views[vname]; !exists {
				ds.views[vname] = ViewDef{Name: vname, Program: op.prog, ICs: op.ics, Optimized: op.optimized}
			}
		}
	case opViewDrop:
		if ds, ok := s.datasets[name]; ok {
			delete(ds.views, s.syms.str(op.view))
		}
	}
}

// applyFacts deletes every retraction, then adds every insertion: on a
// set that leaves a fact in both lists present, as the server's update
// does. A predicate whose last row leaves is dropped, so it forgets its
// arity, as the server's dataset does.
func (s *Store) applyFacts(ds *dsState, adds, dels []ifact) {
	for _, f := range dels {
		pname := s.syms.str(f.pred)
		if ps := ds.preds[pname]; ps != nil {
			delete(ps.rows, rowKey(f.row))
			if len(ps.rows) == 0 {
				delete(ds.preds, pname)
			}
		}
	}
	for _, f := range adds {
		pname := s.syms.str(f.pred)
		ps := ds.preds[pname]
		if ps == nil {
			ps = newPredState(len(f.row))
			ds.preds[pname] = ps
		}
		ps.add(f.row)
	}
}

// --- introspection (tests, benchmarks, differential checks) ----------

// Datasets returns the dataset names, sorted.
func (s *Store) Datasets() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.datasets))
	for name := range s.datasets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Facts returns a dataset's facts in deterministic (predicate, row)
// order, or nil when the dataset does not exist.
func (s *Store) Facts(dataset string) []ast.Atom {
	s.mu.Lock()
	defer s.mu.Unlock()
	ds := s.datasets[dataset]
	if ds == nil {
		return nil
	}
	return s.factsLocked(ds)
}

// sortedPreds returns a dataset's predicate names, sorted.
func sortedPreds(ds *dsState) []string {
	preds := make([]string, 0, len(ds.preds))
	for p := range ds.preds {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	return preds
}

func (s *Store) factsLocked(ds *dsState) []ast.Atom {
	var out []ast.Atom
	for _, p := range sortedPreds(ds) {
		ps := ds.preds[p]
		pred := s.syms.internStr(p) // known: no new id
		for _, row := range ps.sortedRows() {
			out = append(out, s.syms.atom(ifact{pred: pred, row: row}))
		}
	}
	return out
}

// Views returns a dataset's registered views sorted by name.
func (s *Store) Views(dataset string) []ViewDef {
	s.mu.Lock()
	defer s.mu.Unlock()
	ds := s.datasets[dataset]
	if ds == nil {
		return nil
	}
	return viewList(ds)
}

func viewList(ds *dsState) []ViewDef {
	out := make([]ViewDef, 0, len(ds.views))
	for _, v := range ds.views {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Rows returns a predicate's interned rows in lexicographic order.
func (s *Store) Rows(dataset, pred string) [][]uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ds := s.datasets[dataset]; ds != nil {
		if ps := ds.preds[pred]; ps != nil {
			return ps.sortedRows()
		}
	}
	return nil
}

// DiffState compares the full durable state of two stores — datasets,
// views and interned rows — and returns a human-readable description of
// the first difference, or "" when they are bit-identical. Rows are
// interned, so they compare equal only when both stores assigned
// identical symbol ids, which is exactly the reproducibility recovery
// must provide.
func (s *Store) DiffState(o *Store) string {
	a, b := s.Datasets(), o.Datasets()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		return fmt.Sprintf("datasets %v vs %v", a, b)
	}
	for _, name := range a {
		av, bv := s.Views(name), o.Views(name)
		if fmt.Sprint(av) != fmt.Sprint(bv) {
			return fmt.Sprintf("dataset %s views %v vs %v", name, av, bv)
		}
		s.mu.Lock()
		preds := sortedPreds(s.datasets[name])
		s.mu.Unlock()
		o.mu.Lock()
		preds = append(preds, sortedPreds(o.datasets[name])...) // a name twice compares twice
		o.mu.Unlock()
		for _, p := range preds {
			ar, br := s.Rows(name, p), o.Rows(name, p)
			if fmt.Sprint(ar) != fmt.Sprint(br) {
				return fmt.Sprintf("dataset %s pred %s rows differ (%d vs %d)", name, p, len(ar), len(br))
			}
		}
	}
	return ""
}

// publicOp converts a decoded record to atom-level form.
func (s *Store) publicOp(op *iop) Op {
	out := Op{
		Kind:    OpKind(op.kind),
		Dataset: s.syms.str(op.ds),
		Adds:    s.appendAtoms(nil, op.adds),
		Dels:    s.appendAtoms(nil, op.dels),
	}
	if op.kind == opViewRegister || op.kind == opViewDrop {
		out.View = ViewDef{Name: s.syms.str(op.view), Program: op.prog, ICs: op.ics, Optimized: op.optimized}
	}
	return out
}

// appendAtoms appends facts to out in atom-level form.
func (s *Store) appendAtoms(out []ast.Atom, facts []ifact) []ast.Atom {
	for _, f := range facts {
		out = append(out, s.syms.atom(f))
	}
	return out
}

// Checkpoint writes the current state as an immutable checkpoint,
// truncates the WAL, and updates the manifest.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.failed != nil {
		return s.failed
	}
	return s.checkpointLocked()
}
