package store

// Checkpoint segments and the manifest. A segment is an immutable
// snapshot of the whole store — symbol table, datasets, views,
// interned rows — written at checkpoint so the WAL can be truncated. The format is flat and 4-byte aligned
// throughout (strings are padded), so a reader can memory-map the file
// and view each predicate's row block as a ready-to-scan [nrows×arity]
// array of uint32 without any per-row decoding:
//
//	[4]byte   magic "sqos"
//	uint32    format version (2)
//	uint32    nsyms
//	  nsyms × { uint32 kind; num: 8B float bits | str: uint32 len + padded bytes }
//	uint32    ndatasets
//	  per dataset:
//	    uint32  name symbol
//	    uint32  nviews
//	      nviews × { uint32 name symbol, padded string prog, padded
//	                 string ics, uint32 optimized }
//	    uint32  npreds
//	      per predicate (sorted by name):
//	        uint32  name symbol
//	        uint32  arity
//	        uint32  nrows
//	        nrows × arity × uint32   row block, lexicographically sorted
//	uint32    CRC32 (IEEE) of everything above
//
// Version 1 had, between nrows and the row block, one distinct-value
// sketch per column ({ uint32 len, sketch bytes, pad } each) for a
// join-order policy that no longer exists. Version-1 segments still
// load: the reader checks that each sketch is well framed and skips it
// (skipSketch), and the next checkpoint writes version 2.
//
// Every list is sorted (symbols by id, datasets/views/predicates by
// name, rows lexicographically), so the file is a deterministic
// function of the store state. The manifest is a tiny text file naming
// the current segment and WAL; it is replaced atomically
// (write-temp + rename + directory fsync), which makes checkpointing
// crash-safe: until the rename lands, recovery sees the old
// segment+WAL pair; after it, the new pair. Files the manifest no
// longer references are deleted after the rename and garbage-collected
// at recovery if a crash interrupted the cleanup.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const (
	segMagic   = "sqos"
	segVersion = 2

	manifestName = "MANIFEST"
	segPrefix    = "seg"
	segExt       = ".sqos"
	walPrefix    = "wal"
	walExt       = ".log"
)

// --- segment encoding -------------------------------------------------

func appendU32(buf []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(buf, v)
}

// appendPadded appends a length-prefixed byte string padded to the
// next 4-byte boundary.
func appendPadded(buf []byte, s string) []byte {
	buf = appendU32(buf, uint32(len(s)))
	buf = append(buf, s...)
	for len(buf)%4 != 0 {
		buf = append(buf, 0)
	}
	return buf
}

// encodeSegment renders the full store state. Caller holds s.mu.
func (s *Store) encodeSegment() []byte {
	buf := make([]byte, 0, 4096)
	buf = append(buf, segMagic...)
	buf = appendU32(buf, segVersion)

	buf = appendU32(buf, uint32(len(s.syms.syms)))
	for _, sym := range s.syms.syms {
		buf = appendU32(buf, uint32(sym.kind))
		if sym.kind == symNum {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(sym.val))
		} else {
			buf = appendPadded(buf, sym.name)
		}
	}

	names := make([]string, 0, len(s.datasets))
	for name := range s.datasets {
		names = append(names, name)
	}
	sort.Strings(names)
	buf = appendU32(buf, uint32(len(names)))
	for _, name := range names {
		ds := s.datasets[name]
		buf = appendU32(buf, s.syms.internStr(name))

		views := viewList(ds)
		buf = appendU32(buf, uint32(len(views)))
		for _, v := range views {
			buf = appendU32(buf, s.syms.internStr(v.Name))
			buf = appendPadded(buf, v.Program)
			buf = appendPadded(buf, v.ICs)
			var opt uint32
			if v.Optimized {
				opt = 1
			}
			buf = appendU32(buf, opt)
		}

		preds := make([]string, 0, len(ds.preds))
		for p := range ds.preds {
			preds = append(preds, p)
		}
		sort.Strings(preds)
		buf = appendU32(buf, uint32(len(preds)))
		for _, p := range preds {
			ps := ds.preds[p]
			buf = appendU32(buf, s.syms.internStr(p))
			buf = appendU32(buf, uint32(ps.arity))
			buf = appendU32(buf, uint32(len(ps.rows)))
			for _, row := range ps.sortedRows() {
				for _, v := range row {
					buf = appendU32(buf, v)
				}
			}
		}
	}

	return appendU32(buf, crc32.ChecksumIEEE(buf))
}

// segReader walks a segment with explicit bounds checks; every failure
// wraps ErrCorrupt.
type segReader struct {
	data []byte
	off  int
	err  error
}

func (r *segReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: segment: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

func (r *segReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.data)-r.off < 4 {
		r.fail("unexpected end at %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *segReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.data)-r.off < n {
		r.fail("short read (%d bytes at %d)", n, r.off)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *segReader) padded() string {
	n := int(r.u32())
	b := r.bytes(n)
	if pad := (4 - n%4) % 4; pad > 0 {
		r.bytes(pad)
	}
	return string(b)
}

// count bounds an element count against the bytes remaining (each
// element costs at least min bytes).
func (r *segReader) count(min int) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if min < 4 {
		min = 4
	}
	if int64(n) > int64((len(r.data)-r.off)/min+1) {
		r.fail("implausible count %d at %d", n, r.off)
		return 0
	}
	return int(n)
}

// loadSegment parses a segment image into the (empty) store mirror and
// symbol table. Caller holds s.mu.
func (s *Store) loadSegment(data []byte) error {
	if len(data) < len(segMagic)+8 || string(data[:4]) != segMagic {
		return fmt.Errorf("%w: segment: bad magic", ErrCorrupt)
	}
	body, trailer := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != trailer {
		return fmt.Errorf("%w: segment: CRC mismatch", ErrCorrupt)
	}
	r := &segReader{data: body, off: 4}
	version := r.u32()
	if r.err == nil && version != 1 && version != segVersion {
		return fmt.Errorf("%w: segment: unsupported version %d", ErrCorrupt, version)
	}

	nsyms := r.count(4)
	for i := 0; i < nsyms && r.err == nil; i++ {
		kind := symKind(r.u32())
		var sym symbol
		switch kind {
		case symNum:
			b := r.bytes(8)
			if r.err != nil {
				break
			}
			sym = symbol{kind: symNum, val: math.Float64frombits(binary.LittleEndian.Uint64(b))}
		case symStr:
			sym = symbol{kind: symStr, name: r.padded()}
		default:
			r.fail("unknown symbol kind %d", kind)
		}
		if r.err != nil {
			break
		}
		if err := s.syms.install(uint32(i), sym); err != nil {
			return err
		}
	}
	if r.err != nil {
		return r.err
	}

	sym := func() (string, bool) {
		id := r.u32()
		if r.err != nil || !s.syms.valid(id) {
			r.fail("dangling symbol id %d", id)
			return "", false
		}
		return s.syms.str(id), true
	}

	ndatasets := r.count(8)
	for i := 0; i < ndatasets && r.err == nil; i++ {
		name, ok := sym()
		if !ok {
			break
		}
		ds := newDsState()
		s.datasets[name] = ds

		nviews := r.count(16)
		for j := 0; j < nviews && r.err == nil; j++ {
			vname, ok := sym()
			if !ok {
				break
			}
			prog := r.padded()
			ics := r.padded()
			opt := r.u32()
			if r.err == nil {
				ds.views[vname] = ViewDef{Name: vname, Program: prog, ICs: ics, Optimized: opt != 0}
			}
		}

		npreds := r.count(12)
		for j := 0; j < npreds && r.err == nil; j++ {
			pname, ok := sym()
			if !ok {
				break
			}
			arity := int(r.u32())
			nrows := int(r.u32())
			if r.err != nil {
				break
			}
			if arity < 0 || arity > 1<<16 {
				r.fail("implausible arity %d", arity)
				break
			}
			ps := newPredState(arity)
			ds.preds[pname] = ps
			for c := 0; version == 1 && c < arity && r.err == nil; c++ {
				n := int(r.u32())
				b := r.bytes(n)
				if pad := (4 - n%4) % 4; pad > 0 {
					r.bytes(pad)
				}
				if r.err == nil && !skipSketch(b) {
					r.fail("bad sketch for %s.%s[%d]", name, pname, c)
				}
			}
			if r.err != nil {
				break
			}
			if arity > 0 && nrows > (len(r.data)-r.off)/(4*arity) {
				r.fail("implausible row count %d", nrows)
				break
			}
			for k := 0; k < nrows && r.err == nil; k++ {
				row := make([]uint32, arity)
				for c := range row {
					row[c] = r.u32()
				}
				if r.err == nil {
					// Rows land verbatim, so recovered state is
					// byte-for-byte the checkpointed state.
					ps.rows[rowKey(row)] = row
				}
			}
		}
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(body) {
		return fmt.Errorf("%w: segment: %d trailing bytes", ErrCorrupt, len(body)-r.off)
	}
	return nil
}

// skipSketch reports whether b is one well-framed version-1 column
// sketch: a mode byte, then either a uvarint count of at most 129 and
// that many 4-byte values (exact mode, 0) or a 4,096-bit table (spilled
// mode, 1), and nothing after.
func skipSketch(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	switch b[0] {
	case 0:
		n, k := binary.Uvarint(b[1:])
		return k > 0 && n <= 129 && len(b) == 1+k+4*int(n)
	case 1:
		return len(b) == 1+4096/8
	}
	return false
}

// --- manifest ---------------------------------------------------------

type manifest struct {
	seq     uint64
	segment string // base name, "" when no checkpoint exists yet
	wal     string // base name
}

func (m manifest) render() string {
	seg := m.segment
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
		m.segment = seg
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

// recover loads the manifest, the segment it names, and the WAL tail,
// rebuilding the mirror and filling rec. Caller is Open; s.mu is not
// yet shared.
func (s *Store) recover(rec *Recovered) error {
	mpath := filepath.Join(s.dir, manifestName)
	mdata, err := os.ReadFile(mpath)
	switch {
	case os.IsNotExist(err):
		// Fresh store: seq 1, empty WAL, no segment.
		s.seq = 1
		s.walName = filepath.Base(filename(s.dir, walPrefix, s.seq, walExt))
		if err := writeFileAtomic(filepath.Join(s.dir, s.walName), nil); err != nil {
			return fmt.Errorf("store: init wal: %w", err)
		}
		if err := writeFileAtomic(mpath, []byte(manifest{seq: s.seq, wal: s.walName}.render())); err != nil {
			return fmt.Errorf("store: init manifest: %w", err)
		}
	case err != nil:
		return fmt.Errorf("store: reading manifest: %w", err)
	default:
		m, err := parseManifest(mdata)
		if err != nil {
			return err
		}
		s.seq = m.seq
		s.segName = m.segment
		s.walName = m.wal
	}

	if s.segName != "" {
		data, unmap, err := mapFile(filepath.Join(s.dir, s.segName))
		if err != nil {
			return fmt.Errorf("store: mapping segment %s: %w", s.segName, err)
		}
		lerr := s.loadSegment(data)
		unmap()
		if lerr != nil {
			return lerr
		}
	}
	rec.Datasets = s.snapshotLocked()

	wpath := filepath.Join(s.dir, s.walName)
	wdata, err := os.ReadFile(wpath)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: reading wal: %w", err)
	}
	res := replay(wdata, s.syms)
	for _, op := range res.ops {
		rec.Tail = append(rec.Tail, s.publicOp(op))
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

// gc removes seg/wal files the manifest no longer references (left
// behind if a crash interrupted post-checkpoint cleanup).
func (s *Store) gc() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		owned := (strings.HasPrefix(name, segPrefix+"-") && strings.HasSuffix(name, segExt)) ||
			(strings.HasPrefix(name, walPrefix+"-") && strings.HasSuffix(name, walExt)) ||
			strings.HasPrefix(name, ".tmp-")
		if owned && name != s.segName && name != s.walName {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
}

// --- checkpoint -------------------------------------------------------

// checkpointLocked writes the state as a new segment, switches to a
// fresh WAL, and commits both via the manifest. Caller holds s.mu.
func (s *Store) checkpointLocked() error {
	s.sinceCkpt = 0
	if s.dir == "" {
		s.checkpoints++
		return nil
	}
	// An interval-policy WAL may have unsynced acked records; the old
	// WAL is about to be deleted, so its state must be fully inside the
	// segment — it is (the mirror covers every appended record), but
	// sync anyway so a crash between rename and delete leaves a
	// consistent pair either way.
	if s.wal != nil {
		if err := s.wal.Sync(); err != nil {
			s.failed = fmt.Errorf("store: failed stop: checkpoint wal fsync: %w", err)
			return s.failed
		}
	}

	newSeq := s.seq + 1
	segName := filepath.Base(filename(s.dir, segPrefix, newSeq, segExt))
	walName := filepath.Base(filename(s.dir, walPrefix, newSeq, walExt))
	if err := writeFileAtomic(filepath.Join(s.dir, segName), s.encodeSegment()); err != nil {
		return fmt.Errorf("writing segment: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(s.dir, walName), nil); err != nil {
		return fmt.Errorf("creating wal: %w", err)
	}
	m := manifest{seq: newSeq, segment: segName, wal: walName}
	if err := writeFileAtomic(filepath.Join(s.dir, manifestName), []byte(m.render())); err != nil {
		return fmt.Errorf("writing manifest: %w", err)
	}

	// The manifest rename committed the checkpoint; everything after is
	// cleanup.
	oldWal, oldSeg := s.walName, s.segName
	f, err := os.OpenFile(filepath.Join(s.dir, walName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("opening new wal: %w", err)
	}
	if s.wal != nil {
		s.wal.Close()
	}
	s.wal, s.walSize = f, 0
	s.seq, s.segName, s.walName = newSeq, segName, walName
	s.checkpoints++
	if oldWal != "" && oldWal != walName {
		os.Remove(filepath.Join(s.dir, oldWal))
	}
	if oldSeg != "" && oldSeg != segName {
		os.Remove(filepath.Join(s.dir, oldSeg))
	}
	return nil
}
