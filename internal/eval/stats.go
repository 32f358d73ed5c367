package eval

// Per-relation statistics for the cost-based join-ordering policies
// (Options.Policy). Every irel carries, next to its row count, one small
// fixed-size sketch per column estimating the number of distinct values
// in that column. A sketch's state is a pure function of the set of ids
// added to it (exact mode keeps the set, spilled mode ORs hash bits), so
// nothing is lost by feeding it late: add never touches the sketches,
// and irel.sketches folds in the rows appended since the last read the
// first time anyone asks. The estimates — and the bytes internal/store
// persists — are bit-identical to sketches updated on every insert, and
// an evaluation under the default greedy policy, which never asks, pays
// nothing (updating on insert was 16% of a fixpoint's CPU). A sketch
// cannot forget a value, so a removal (internal/incr's retractions)
// drops the relation's sketches and the next read folds the live rows
// again — exact bookkeeping, not a probabilistic deletion structure.
//
// Each sketch is hybrid: below sketchExactMax distinct values it keeps
// the exact value set (a map), so estimates on small relations are
// exact; past the threshold it spills into a fixed sketchBuckets-bit
// table and estimates by linear counting (Whang et al.):
//
//	distinct ≈ m · ln(m / zeroBits)
//
// which stays within a few percent up to several distinct values per
// bit.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

const (
	// sketchExactMax is the number of distinct values a column tracks
	// exactly before spilling to the bit table.
	sketchExactMax = 128
	// sketchBuckets is the bit-table width after the spill (power of
	// two; 4096 bits = 512 bytes per spilled column).
	sketchBuckets = 4096
	sketchMask    = sketchBuckets - 1
)

// ColSketch estimates the number of distinct values in one column.
// Same concurrency contract as the owning irel: single writer (Add),
// any number of readers of a frozen relation (Distinct). The zero
// value is an empty sketch, ready for use.
//
// The type is exported for internal/store, which persists per-column
// sketches alongside the interned rows of its segment files: sketch
// state is a pure function of the set of ids added (exact mode keeps
// the set; spilled mode ORs hash bits), so a sketch rebuilt by WAL
// replay is bit-identical to the uninterrupted one — the property the
// crash-recovery differential test pins.
type ColSketch struct {
	exact map[uint32]struct{}
	bits  []uint64 // sketchBuckets bits once spilled; nil before
	ones  int      // set bits
}

// hash32 mixes an interned id into a bucket-selection hash
// (multiplicative hashing with a xor-fold; ids are dense, so the raw
// value must not be used directly).
func hash32(v uint32) uint32 {
	v *= 2654435761
	v ^= v >> 16
	return v
}

// Add records one value.
func (c *ColSketch) Add(v uint32) {
	if c.bits == nil {
		if c.exact == nil {
			c.exact = make(map[uint32]struct{}, 8)
		}
		if _, ok := c.exact[v]; ok {
			return
		}
		c.exact[v] = struct{}{}
		if len(c.exact) > sketchExactMax {
			c.spill()
		}
		return
	}
	c.set(hash32(v) & sketchMask)
}

// spill folds the exact set into the bit table and drops it.
func (c *ColSketch) spill() {
	c.bits = make([]uint64, sketchBuckets/64)
	for v := range c.exact {
		c.set(hash32(v) & sketchMask)
	}
	c.exact = nil
}

func (c *ColSketch) set(b uint32) {
	w, m := b>>6, uint64(1)<<(b&63)
	if c.bits[w]&m == 0 {
		c.bits[w] |= m
		c.ones++
	}
}

// Distinct returns the estimated distinct count: exact below the spill
// threshold, linear counting above it.
func (c *ColSketch) Distinct() int {
	if c.bits == nil {
		return len(c.exact)
	}
	zeros := sketchBuckets - c.ones
	if zeros == 0 {
		// Saturated table: linear counting can no longer resolve the
		// count; report the largest estimate the sketch can express.
		return int(float64(sketchBuckets) * math.Log(float64(sketchBuckets)))
	}
	return int(math.Round(float64(sketchBuckets) * math.Log(float64(sketchBuckets)/float64(zeros))))
}

// fold adds the live rows among [lo, hi) of r to the per-column
// sketches sk.
func (r *irel) fold(sk []ColSketch, lo, hi int) {
	for i := lo; i < hi; i++ {
		if r.hidden(i, r.epoch) {
			continue
		}
		for j, v := range r.row(i) {
			sk[j].Add(v)
		}
	}
}

// sketches returns the per-column sketches of a frozen relation, first
// folding in the rows added since they were last read.
func (r *irel) sketches() []ColSketch { return r.sketchesTo(r.n) }

// sketchesTo returns the per-column sketches over rows [0, hi), folding
// in the rows below hi that were added since they were last read — and
// none from hi on, so a fixpoint round can ask while it appends (the
// bounds one relation is asked with never decrease). The catch-up is
// double-checked under r.mu like index(): the EDB base is shared, so
// concurrent evaluations can ask for their first estimate at once.
func (r *irel) sketchesTo(hi int) []ColSketch {
	r.mu.RLock()
	current := r.statsN >= hi
	r.mu.RUnlock()
	if !current {
		r.mu.Lock()
		if r.stats == nil {
			r.stats = make([]ColSketch, r.arity)
		}
		if r.statsN < hi {
			r.fold(r.stats, r.statsN, hi)
			r.statsN = hi
		}
		r.mu.Unlock()
	}
	return r.stats
}

// distinct returns the estimated number of distinct values in column j
// (0 for an empty relation). Read-only on a frozen relation.
func (r *irel) distinct(j int) int {
	if r.n == r.nDead {
		return 0
	}
	return r.sketches()[j].Distinct()
}

// Equal reports whether two sketches carry bit-identical state: same
// mode, and same exact set or same bit table. Used by the persistence
// layer's differential tests to pin recovered sketches against an
// uninterrupted run.
func (c *ColSketch) Equal(d *ColSketch) bool {
	if (c.bits == nil) != (d.bits == nil) {
		return false
	}
	if c.bits != nil {
		if c.ones != d.ones || len(c.bits) != len(d.bits) {
			return false
		}
		for i := range c.bits {
			if c.bits[i] != d.bits[i] {
				return false
			}
		}
		return true
	}
	if len(c.exact) != len(d.exact) {
		return false
	}
	for v := range c.exact {
		if _, ok := d.exact[v]; !ok {
			return false
		}
	}
	return true
}

// Sketch encoding bytes (internal/store segment files). Exact mode
// serializes the value set sorted, so the encoding is deterministic
// for a given set regardless of insertion order.
const (
	sketchModeExact   = 0
	sketchModeSpilled = 1
)

// AppendEncoded appends a deterministic binary encoding of the sketch
// to buf and returns the extended slice: a mode byte, then either a
// uvarint count followed by the sorted exact values (4 bytes LE each),
// or the raw bit table (sketchBuckets/8 bytes LE).
func (c *ColSketch) AppendEncoded(buf []byte) []byte {
	if c.bits != nil {
		buf = append(buf, sketchModeSpilled)
		for _, w := range c.bits {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
		return buf
	}
	buf = append(buf, sketchModeExact)
	vals := make([]uint32, 0, len(c.exact))
	for v := range c.exact {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint32(buf, v)
	}
	return buf
}

// DecodeColSketch decodes a sketch produced by AppendEncoded from the
// front of data, returning the sketch and the number of bytes
// consumed. Malformed input yields an error, never a panic.
func DecodeColSketch(data []byte) (ColSketch, int, error) {
	if len(data) < 1 {
		return ColSketch{}, 0, fmt.Errorf("eval: sketch: empty input")
	}
	mode, off := data[0], 1
	switch mode {
	case sketchModeSpilled:
		words := sketchBuckets / 64
		need := words * 8
		if len(data)-off < need {
			return ColSketch{}, 0, fmt.Errorf("eval: sketch: truncated bit table")
		}
		c := ColSketch{bits: make([]uint64, words)}
		for i := 0; i < words; i++ {
			w := binary.LittleEndian.Uint64(data[off:])
			c.bits[i] = w
			c.ones += bits.OnesCount64(w)
			off += 8
		}
		return c, off, nil
	case sketchModeExact:
		n, k := binary.Uvarint(data[off:])
		if k <= 0 || n > sketchExactMax+1 {
			return ColSketch{}, 0, fmt.Errorf("eval: sketch: bad exact count")
		}
		off += k
		if len(data)-off < int(n)*4 {
			return ColSketch{}, 0, fmt.Errorf("eval: sketch: truncated exact set")
		}
		c := ColSketch{}
		if n > 0 {
			c.exact = make(map[uint32]struct{}, n)
		}
		for i := 0; i < int(n); i++ {
			c.exact[binary.LittleEndian.Uint32(data[off:])] = struct{}{}
			off += 4
		}
		return c, off, nil
	default:
		return ColSketch{}, 0, fmt.Errorf("eval: sketch: unknown mode %d", mode)
	}
}
