package shard

import (
	"fmt"
	"slices"
	"testing"
)

// TestGoldenAssignments pins concrete placements forever: Place is part
// of the on-the-wire cluster contract — a coordinator and its
// replacement must put every dataset on the same worker — so any change
// to the hash is a breaking change and must fail loudly here.
func TestGoldenAssignments(t *testing.T) {
	peers := []string{"http://a:8080", "http://b:8080", "http://c:8080"}
	for ds, want := range map[string]string{
		"alpha": "http://c:8080",
		"beta":  "http://a:8080",
		"gamma": "http://b:8080",
	} {
		if got := Place(ds, peers); got != want {
			t.Errorf("Place(%q) = %q, want %q", ds, got, want)
		}
	}
}

// TestShardRangeAndDeterminism: every placement is one of the peers, and
// the same one on every call.
func TestShardRangeAndDeterminism(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64} {
		peers := make([]string, n)
		for i := range peers {
			peers[i] = fmt.Sprintf("http://w%d:8351", i)
		}
		for i := 0; i < 200; i++ {
			name := fmt.Sprintf("n:%d", i)
			got := Place(name, peers)
			if got != Place(name, peers) {
				t.Fatalf("Place(%q) over %d peers is nondeterministic", name, n)
			}
			if !slices.Contains(peers, got) {
				t.Fatalf("Place(%q) = %q, not one of the %d peers", name, got, n)
			}
		}
	}
}

// TestRendezvousMinimalDisruption: adding a peer moves only the
// datasets the new peer wins — every other dataset keeps its owner — and
// it wins some.
func TestRendezvousMinimalDisruption(t *testing.T) {
	peers := []string{"http://w0:8351"}
	for n := 1; n < 8; n++ {
		grown := append(slices.Clone(peers), fmt.Sprintf("http://w%d:8351", n))
		moved := 0
		for i := 0; i < 500; i++ {
			name := fmt.Sprintf("dataset-%d", i)
			old, niu := Place(name, peers), Place(name, grown)
			if old != niu {
				moved++
				if niu != grown[n] {
					t.Fatalf("%d peers: %q moved %q -> %q, not to the new peer", n, name, old, niu)
				}
			}
		}
		if moved == 0 {
			t.Fatalf("%d peers: the new peer won none of 500 datasets", n)
		}
		peers = grown
	}
}

// TestBalance: 2,000 datasets spread over 2, 4 and 8 peers with no peer
// holding more than 1.35 times its fair share.
func TestBalance(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		load := map[string]int{}
		peers := make([]string, n)
		for i := range peers {
			peers[i] = fmt.Sprintf("http://w%d:8351", i)
		}
		for i := 0; i < 2000; i++ {
			load[Place(fmt.Sprintf("dataset-%d", i), peers)]++
		}
		for peer, c := range load {
			if r := float64(c) / (2000 / float64(n)); r > 1.35 {
				t.Errorf("%d peers: %s holds %d datasets, %.2f times its share", n, peer, c, r)
			}
		}
	}
}

func TestPlace(t *testing.T) {
	peers := []string{"http://a:8080", "http://b:8080", "http://c:8080"}
	if Place("ds", nil) != "" {
		t.Fatal("empty peer list should place nowhere")
	}
	// Order independence: every permutation of the peer list yields the
	// same owner — the cluster's coordinator and a restarted replacement
	// must agree even if -peers was written in a different order.
	perms := [][]string{
		{peers[0], peers[1], peers[2]},
		{peers[2], peers[0], peers[1]},
		{peers[1], peers[2], peers[0]},
		{peers[2], peers[1], peers[0]},
	}
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("dataset-%d", i)
		owner := Place(name, perms[0])
		for _, perm := range perms[1:] {
			if got := Place(name, perm); got != owner {
				t.Fatalf("Place(%q) order-dependent: %q vs %q", name, owner, got)
			}
		}
	}
	// Removing a non-owner peer never reassigns a dataset it didn't own.
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("dataset-%d", i)
		owner := Place(name, peers)
		for _, drop := range peers {
			if drop == owner {
				continue
			}
			rest := make([]string, 0, 2)
			for _, p := range peers {
				if p != drop {
					rest = append(rest, p)
				}
			}
			if got := Place(name, rest); got != owner {
				t.Fatalf("Place(%q): dropping non-owner %q moved it %q -> %q", name, drop, owner, got)
			}
		}
	}
}
