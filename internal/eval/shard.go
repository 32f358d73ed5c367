package eval

// Sharded evaluation (Options.Shards): the depth-0 relation of every
// rule task is hash-partitioned by its first column instead of
// range-partitioned, one task per shard, and the per-shard deltas are
// exchanged and merged deterministically at the round barrier. Each
// shard evaluates its partition against the full round snapshot (the
// in-process analogue of broadcasting the probed subrelations), so the
// union of the shards' work is exactly the single-shard work:
// RuleFirings, JoinProbes, and TuplesDerived are sums over a partition
// of the same depth-0 tuples and cannot depend on the partitioning.
//
// Provenance and insertion order need one extra mechanism: with range
// partitioning, merging buffers in task order replays the single-task
// derivation order, but a hash partition interleaves depth-0 rows
// across shards. Every sharded task therefore records the depth-0 row
// index of each buffered head (an index into the relation, also when
// the task covers only its delta window), and the barrier k-way-merges
// the group's buffers by that index — reconstructing the exact order a
// single task would have derived heads in, so the first derivation of
// every fact (which is what provenance records) is bit-identical at
// any shard count.
//
// Partition keys are rendered term contents (ast.Term.Key), never
// intern ids: interning order differs run to run, while the rendered
// key of a row is stable. That is what makes shard assignment — and the
// ShardExchanged counter — deterministic across runs and symbol-table
// growth.

import (
	"repro/internal/shard"
)

// effectiveShards resolves Options.Shards: 0 and 1 mean sharding off.
func (o Options) effectiveShards() int {
	if o.Shards > 1 {
		return o.Shards
	}
	return 0
}

// partitioner resolves Options.ShardPartitioner; validatePolicy has
// already rejected unknown names.
func (o Options) partitioner() shard.Partitioner {
	p, err := shard.Parse(o.ShardPartitioner)
	if err != nil {
		return shard.Modulo{}
	}
	return p
}

// appendSharded appends one task per shard, all filtering the same
// depth-0 row range through the precomputed owners slice.
func appendSharded(ts []task, t task, owners []uint8, shards int) []task {
	for s := 0; s < shards; s++ {
		nt := t
		nt.shard, nt.nShards, nt.owners = s, shards, owners
		ts = append(ts, nt)
	}
	return ts
}

// ownersFor returns the per-row shard owners of rel — an EDB base or
// an IDB relation, never a per-round temporary — extending the memoized
// slice to cover rows appended since the last round. Owners are keyed
// on the rendered term of each row's first column ("" for arity-0
// relations, which puts all their rows on one shard). Called only at
// single-threaded round barriers (so termKey is safe: the interner
// stopped growing after prepare); tasks read the returned slice
// concurrently but never write it.
func (ev *cEvaluator) ownersFor(rel *irel) []uint8 {
	if rel == nil {
		return nil
	}
	o := ev.owners[rel]
	for i := len(o); i < rel.n; i++ {
		key := ""
		if rel.arity > 0 {
			key = ev.in.termKey(rel.row(i)[0])
		}
		o = append(o, uint8(ev.part.Shard(key, ev.shards)))
	}
	ev.owners[rel] = o
	return o
}
