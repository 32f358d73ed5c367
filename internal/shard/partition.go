// Package shard is the distribution subsystem: a cluster coordinator
// that scatter-gathers queries over a set of sqod worker nodes
// (coordinator.go), placing each dataset on one of them with Place.
//
// Placement is content-based: the key is the dataset's name, never a
// per-evaluation intern id, so a dataset lands on the same worker across
// runs, across processes and across restarts of the coordinator — the
// property the golden assignments pin and the cluster relies on.
package shard

// fnv1a is FNV-1a over the key bytes — the same hash family the eval
// layer uses for interned rows, chosen here for its stability: the
// constants are fixed by the algorithm, so placements never change
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
// decorrelates the per-peer scores derived from one key hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
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
