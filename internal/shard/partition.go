// Package shard is the distribution subsystem: deterministic hash
// partitioners that place datasets (and can split key spaces) across
// shards, and a cluster coordinator that scatter-gathers queries over a
// set of sqod worker nodes (coordinator.go). The coordinator places with
// Place; Partitioner has had no caller in the tree since the evaluator
// stopped sharding in process and stays as the package's tested
// vocabulary for splitting one dataset across nodes.
//
// Partitioning is content-based: keys are the rendered canonical form
// of a term (ast.Term.Key) or a dataset name, never per-evaluation
// intern ids. That makes shard assignment stable across runs, across
// processes, and across symbol-table growth — the property the
// determinism tests pin and the cluster relies on for placement.
package shard

import "fmt"

// Partitioner maps a partition key to a shard index in [0, n). The
// mapping must be a pure function of (key, n): two calls with the same
// arguments return the same shard, in any process, forever.
type Partitioner interface {
	// Name returns the partitioner's registry name (the string Parse
	// accepts).
	Name() string
	// Shard returns the owning shard for key among n shards. n < 2
	// always returns 0.
	Shard(key string, n int) int
}

// fnv1a is FNV-1a over the key bytes — the same hash family the eval
// layer uses for interned rows, chosen here for its stability: the
// constants are fixed by the algorithm, so assignments never change
// across Go versions (unlike maphash or map iteration order).
func fnv1a(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler that
// decorrelates the per-shard scores derived from one key hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Modulo partitions by key-hash modulo shard count: the cheapest
// possible assignment, with the classic drawback that changing n
// remaps almost every key.
type Modulo struct{}

func (Modulo) Name() string { return "modulo" }

func (Modulo) Shard(key string, n int) int {
	if n < 2 {
		return 0
	}
	return int(fnv1a(key) % uint64(n))
}

// Rendezvous is highest-random-weight (HRW) consistent hashing: each
// shard scores the key and the highest score owns it. Growing from n
// to n+1 shards moves only the ~1/(n+1) of keys the new shard wins;
// every other assignment is untouched (the minimal-disruption property
// TestRendezvousMinimalDisruption pins).
type Rendezvous struct{}

func (Rendezvous) Name() string { return "rendezvous" }

func (Rendezvous) Shard(key string, n int) int {
	if n < 2 {
		return 0
	}
	h := fnv1a(key)
	best, bestScore := 0, uint64(0)
	for i := 0; i < n; i++ {
		s := mix64(h ^ mix64(uint64(i)+1))
		if i == 0 || s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// Parse resolves a partitioner by name; the empty string means Modulo
// (the zero-config default).
func Parse(name string) (Partitioner, error) {
	switch name {
	case "", "modulo":
		return Modulo{}, nil
	case "rendezvous":
		return Rendezvous{}, nil
	}
	return nil, fmt.Errorf("shard: unknown partitioner %q (want modulo or rendezvous)", name)
}

// Place returns the member of peers that owns name under rendezvous
// hashing, scoring each peer by its own string so the assignment does
// not depend on the order peers are listed in. Ties (astronomically
// unlikely) break toward the lexicographically smaller peer. Returns
// "" for an empty peer list.
func Place(name string, peers []string) string {
	if len(peers) == 0 {
		return ""
	}
	h := fnv1a(name)
	best, bestScore := "", uint64(0)
	for _, p := range peers {
		s := mix64(h ^ fnv1a(p))
		if best == "" || s > bestScore || (s == bestScore && p < best) {
			best, bestScore = p, s
		}
	}
	return best
}

// Balance reports the max/mean load ratio of distributing keys over n
// shards with p — a quick skew diagnostic used by tests and sqobench.
func Balance(p Partitioner, keys []string, n int) float64 {
	if n < 1 || len(keys) == 0 {
		return 1
	}
	counts := make([]int, n)
	for _, k := range keys {
		counts[p.Shard(k, n)]++
	}
	maxc := 0
	for _, c := range counts {
		if c > maxc {
			maxc = c
		}
	}
	return float64(maxc) / (float64(len(keys)) / float64(n))
}
