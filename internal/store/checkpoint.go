package store

// Checkpoints and the manifest. A checkpoint is the whole store state —
// symbol table, datasets, views, interned rows — written as a file of
// WAL records (wal.go), so that the WAL can be truncated and recovery
// reads both files with one decoder:
//
//	symbols records   the symbol table in id order, deleted datasets'
//	                  names and constants included, so recovered rows
//	                  keep the ids the live store assigned and the next
//	                  append writes the bytes the live store would have
//	per dataset, by name:
//	  one create record, with no facts
//	  one view-register record per view, by name
//	  per predicate, by name: fact records of its rows in order
//	one end record
//
// Symbols and facts are split into records whose payload stays under
// ckptRecordLen (a record holds at least one symbol or fact), so no
// record of a large store passes maxRecordLen. The file is a
// deterministic function of the state. Unlike the WAL's tail, a
// checkpoint must decode completely and end with its end record: a
// torn, cut or corrupt one fails Open with ErrCorrupt, and so, with its
// own error, does a checkpoint in the retired "sqos" segment format.
//
// The manifest is a tiny text file naming the current checkpoint and
// WAL; it is replaced atomically (write-temp + rename + directory
// fsync), which makes checkpointing crash-safe: until the rename lands,
// recovery sees the old checkpoint+WAL pair; after it, the new pair.
// Files the manifest no longer references are deleted after the rename
// and garbage-collected at recovery if a crash interrupted the cleanup.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const (
	// ckptRecordLen bounds the payload of one checkpoint record.
	ckptRecordLen = 64 << 10

	manifestName = "MANIFEST"
	ckptPrefix   = "ckpt"
	walPrefix    = "wal"
)

func fileName(prefix string, seq uint64) string {
	return fmt.Sprintf("%s-%06d.log", prefix, seq)
}

// --- checkpoint encoding ----------------------------------------------

// encodeCheckpoint renders the full store state as records. Caller
// holds s.mu.
func (s *Store) encodeCheckpoint() []byte {
	var out []byte
	syms := s.syms.syms
	split(len(syms), func(i int) int { return 16 + len(syms[i].name) }, func(i, j int) {
		out = appendRecord(out, &iop{kind: opSymbols}, syms[i:j], i)
	})
	names := make([]string, 0, len(s.datasets))
	for name := range s.datasets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ds, id := s.datasets[name], s.syms.internStr(name)
		out = appendRecord(out, &iop{kind: opDatasetCreate, ds: id}, nil, 0)
		for _, v := range viewList(ds) {
			out = appendRecord(out, &iop{kind: opViewRegister, ds: id, view: s.syms.internStr(v.Name),
				prog: v.Program, ics: v.ICs, optimized: v.Optimized}, nil, 0)
		}
		for _, p := range sortedPreds(ds) {
			pred, rows := s.syms.internStr(p), ds.preds[p].sortedRows()
			facts := make([]ifact, len(rows))
			for i, row := range rows {
				facts[i] = ifact{pred: pred, row: row}
			}
			split(len(facts), func(i int) int { return 5 * (2 + len(facts[i].row)) }, func(i, j int) {
				out = appendRecord(out, &iop{kind: opFacts, ds: id, adds: facts[i:j]}, nil, 0)
			})
		}
	}
	return appendRecord(out, &iop{kind: opEnd}, nil, 0)
}

// split calls flush(i, j) for consecutive runs [i, j) of n items, each
// run holding at least one item and otherwise at most ckptRecordLen-16
// bytes of items (16: room for the record's header), given an upper
// bound on each item's encoded size.
func split(n int, size func(int) int, flush func(i, j int)) {
	i, sum := 0, 0
	for j := 0; j < n; j++ {
		if sum+size(j) > ckptRecordLen-16 && j > i {
			flush(i, j)
			i, sum = j, 0
		}
		sum += size(j)
	}
	if n > i {
		flush(i, n)
	}
}

// loadCheckpoint applies a checkpoint image to the (empty) mirror and
// symbol table, and returns the operations that rebuild it: per dataset,
// its create record carrying the facts of every fact record of the
// dataset, in file order, then its view registrations. Facts fold by
// dataset name, as views come before facts in the file. Every record
// must decode and the end record must come last, and only there, or it
// fails with ErrCorrupt: a checkpoint cut between two records, or empty,
// is as corrupt as a torn one. Caller holds s.mu or owns the store.
func (s *Store) loadCheckpoint(data []byte) ([]Op, error) {
	res := replay(data, s.syms)
	if res.truncated != nil {
		return nil, res.truncated
	}
	n := len(res.ops)
	if n == 0 || res.ops[n-1].kind != opEnd {
		return nil, fmt.Errorf("%w: checkpoint cut short: no end record after %d records", ErrCorrupt, n)
	}
	var ops []Op
	creates := map[uint32]int{} // dataset name symbol → its create in ops
	for i, op := range res.ops {
		if op.kind == opEnd && i < n-1 {
			return nil, fmt.Errorf("%w: checkpoint end record at %d of %d records", ErrCorrupt, i+1, n)
		}
		s.apply(op)
		at, created := creates[op.ds]
		switch {
		case op.kind == opDatasetCreate && !created:
			creates[op.ds] = len(ops)
			ops = append(ops, s.publicOp(op))
		case op.kind == opViewRegister && created:
			ops = append(ops, s.publicOp(op))
		case op.kind == opFacts && created:
			ops[at].Adds = s.appendAtoms(ops[at].Adds, op.adds)
		}
	}
	return ops, nil
}

// --- manifest ---------------------------------------------------------

// manifest names the current checkpoint and WAL. Its text still calls
// the checkpoint "segment": the line predates the record format, and a
// store whose first checkpoint is still to come ("segment -") opens
// under either.
type manifest struct {
	seq  uint64
	ckpt string // base name, "" when no checkpoint exists yet
	wal  string // base name
}

func (m manifest) render() string {
	seg := m.ckpt
	if seg == "" {
		seg = "-"
	}
	return fmt.Sprintf("sqod-store v1\nseq %d\nsegment %s\nwal %s\n", m.seq, seg, m.wal)
}

func parseManifest(data []byte) (manifest, error) {
	var m manifest
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 4 || lines[0] != "sqod-store v1" {
		return m, fmt.Errorf("%w: manifest: bad header", ErrCorrupt)
	}
	if _, err := fmt.Sscanf(lines[1], "seq %d", &m.seq); err != nil {
		return m, fmt.Errorf("%w: manifest: bad seq", ErrCorrupt)
	}
	var seg, wal string
	if _, err := fmt.Sscanf(lines[2], "segment %s", &seg); err != nil {
		return m, fmt.Errorf("%w: manifest: bad segment", ErrCorrupt)
	}
	if _, err := fmt.Sscanf(lines[3], "wal %s", &wal); err != nil {
		return m, fmt.Errorf("%w: manifest: bad wal", ErrCorrupt)
	}
	if seg != "-" {
		m.ckpt = seg
	}
	m.wal = wal
	return m, nil
}

// writeFileAtomic writes data to path via a temp file, an fsync, a
// rename, and a directory fsync — the write is all-or-nothing across
// crashes.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// --- recovery ---------------------------------------------------------

// recover loads the manifest, the checkpoint it names, and the WAL tail,
// rebuilding the mirror and filling rec. Caller is Open; s.mu is not
// yet shared.
func (s *Store) recover(rec *Recovered) error {
	mpath := filepath.Join(s.dir, manifestName)
	mdata, err := os.ReadFile(mpath)
	switch {
	case os.IsNotExist(err):
		// Fresh store: seq 1, empty WAL, no checkpoint.
		s.seq, s.walName = 1, fileName(walPrefix, 1)
		if err := s.writeFile(filepath.Join(s.dir, s.walName), nil); err != nil {
			return fmt.Errorf("store: init wal: %w", err)
		}
		if err := s.writeFile(mpath, []byte(manifest{seq: s.seq, wal: s.walName}.render())); err != nil {
			return fmt.Errorf("store: init manifest: %w", err)
		}
	case err != nil:
		return fmt.Errorf("store: reading manifest: %w", err)
	default:
		m, err := parseManifest(mdata)
		if err != nil {
			return err
		}
		s.seq, s.ckptName, s.walName = m.seq, m.ckpt, m.wal
	}

	if s.ckptName != "" {
		data, err := os.ReadFile(filepath.Join(s.dir, s.ckptName))
		if err != nil {
			return fmt.Errorf("store: reading checkpoint: %w", err)
		}
		if bytes.HasPrefix(data, []byte("sqos")) {
			return fmt.Errorf("store: checkpoint %s is a \"sqos\" segment, a format this version no longer reads", s.ckptName)
		}
		if rec.Ops, err = s.loadCheckpoint(data); err != nil {
			return fmt.Errorf("store: checkpoint %s: %w", s.ckptName, err)
		}
	}

	wpath := filepath.Join(s.dir, s.walName)
	wdata, err := os.ReadFile(wpath)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: reading wal: %w", err)
	}
	res := replay(wdata, s.syms)
	for _, op := range res.ops {
		if op.kind != opSymbols && op.kind != opEnd {
			rec.Ops = append(rec.Ops, s.publicOp(op))
		}
		s.apply(op)
	}
	rec.WALRecords = res.records
	rec.WALBytes = int64(res.goodBytes)
	s.sinceCkpt = res.records
	if res.truncated != nil {
		rec.Truncated = true
		if err := os.Truncate(wpath, int64(res.goodBytes)); err != nil {
			return fmt.Errorf("store: truncating torn wal tail: %w", err)
		}
	}

	f, err := os.OpenFile(wpath, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening wal for append: %w", err)
	}
	s.wal, s.walSize = f, int64(res.goodBytes)
	s.gc()
	return nil
}

// gc removes checkpoint and WAL files the manifest no longer references
// (left behind if a crash interrupted a checkpoint or its cleanup),
// seg-*.sqos checkpoints of the retired segment format included.
func (s *Store) gc() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		for _, pat := range []string{"ckpt-*.log", "wal-*.log", "seg-*.sqos", ".tmp-*"} {
			if ok, _ := filepath.Match(pat, name); ok && name != s.ckptName && name != s.walName {
				os.Remove(filepath.Join(s.dir, name))
			}
		}
	}
}

// --- checkpoint -------------------------------------------------------

// checkpointLocked writes the state as a new checkpoint, opens a fresh
// WAL, and commits both via the manifest. Caller holds s.mu. A failure
// before the manifest leaves the old pair current, and the store goes on
// appending to the old WAL. A failed manifest write stops the store:
// its rename may have landed, and then recovery reads the new WAL, not
// the one the store would go on appending to.
func (s *Store) checkpointLocked() error {
	s.sinceCkpt = 0
	// The old WAL is deleted once the manifest commits, and the mirror
	// the checkpoint is written from covers every appended record; sync
	// it anyway so a crash between rename and delete leaves a consistent
	// pair either way.
	if err := s.wal.Sync(); err != nil {
		s.failed = fmt.Errorf("store: failed stop: checkpoint wal fsync: %w", err)
		return s.failed
	}

	seq := s.seq + 1
	ckptName, walName := fileName(ckptPrefix, seq), fileName(walPrefix, seq)
	if err := s.writeFile(filepath.Join(s.dir, ckptName), s.encodeCheckpoint()); err != nil {
		return fmt.Errorf("store: writing checkpoint: %w", err)
	}
	// The manifest's directory fsync makes the new WAL's entry durable.
	wal, err := os.OpenFile(filepath.Join(s.dir, walName), os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating wal: %w", err)
	}
	m := manifest{seq: seq, ckpt: ckptName, wal: walName}
	if err := s.writeFile(filepath.Join(s.dir, manifestName), []byte(m.render())); err != nil {
		wal.Close()
		s.failed = fmt.Errorf("store: failed stop: writing manifest: %w", err)
		return s.failed
	}

	// The manifest rename committed the checkpoint; what follows is
	// cleanup.
	s.wal.Close()
	os.Remove(filepath.Join(s.dir, s.walName))
	if s.ckptName != "" {
		os.Remove(filepath.Join(s.dir, s.ckptName))
	}
	s.wal, s.walSize = wal, 0
	s.seq, s.ckptName, s.walName = seq, ckptName, walName
	s.checkpoints++
	return nil
}
