package cluster_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
)

// TestRingOwnerAgreesAcrossAddOrder: ownership must be a pure function of
// the member set, never of the order members were learned in — that is what
// lets every node route without a coordination round.
func TestRingOwnerAgreesAcrossAddOrder(t *testing.T) {
	a := cluster.NewRing(0)
	b := cluster.NewRing(0)
	for _, id := range []string{"node0", "node1", "node2", "node3"} {
		a.Add(id)
	}
	for _, id := range []string{"node3", "node1", "node0", "node2"} {
		b.Add(id)
	}
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("fp:%d", i)
		if got, want := b.Owner(key, nil), a.Owner(key, nil); got != want {
			t.Fatalf("owner(%q) differs by add order: %q vs %q", key, got, want)
		}
	}
}

// TestRingOwnerSkipsDead: a dead owner's keys fall to the next distinct live
// node, deterministically, and fall back when the node revives.
func TestRingOwnerSkipsDead(t *testing.T) {
	r := cluster.NewRing(0)
	r.Add("node0")
	r.Add("node1")
	r.Add("node2")
	alive := func(string) bool { return false }
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("fp:%d", i)
		owner := r.Owner(key, nil)
		if owner == "" {
			t.Fatalf("no owner for %q on a populated ring", key)
		}
		dead := func(n string) bool { return n == owner }
		next := r.Owner(key, dead)
		if next == owner || next == "" {
			t.Fatalf("key %q: dead owner %q not skipped (got %q)", key, owner, next)
		}
		// Two independent evaluations agree (the re-dispatch rule is stable).
		if again := r.Owner(key, dead); again != next {
			t.Fatalf("key %q: failover owner unstable: %q vs %q", key, next, again)
		}
		if back := r.Owner(key, alive); back != owner {
			t.Fatalf("key %q: revival did not restore ownership: %q vs %q", key, back, owner)
		}
	}
	// All members rejected -> no owner.
	if got := r.Owner("fp:0", func(string) bool { return true }); got != "" {
		t.Fatalf("all-dead ring returned owner %q", got)
	}
}

// TestRingEmpty: an empty ring owns nothing.
func TestRingEmpty(t *testing.T) {
	if got := cluster.NewRing(0).Owner("anything", nil); got != "" {
		t.Fatalf("empty ring returned owner %q", got)
	}
}

// TestRingDistribution: with 64 virtual points per member no node should be
// starved — a sanity bound, not a uniformity claim.
func TestRingDistribution(t *testing.T) {
	r := cluster.NewRing(0)
	nodes := []string{"node0", "node1", "node2"}
	for _, id := range nodes {
		r.Add(id)
	}
	counts := map[string]int{}
	const keys = 9000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("fp:%x", i*7919), nil)]++
	}
	for _, id := range nodes {
		if counts[id] < keys/10 {
			t.Fatalf("node %s owns only %d/%d keys — ring badly skewed: %v", id, counts[id], keys, counts)
		}
	}
}

// TestRingAddIdempotent: re-adding a member must not double its points (and
// so must not shift ownership).
func TestRingAddIdempotent(t *testing.T) {
	r := cluster.NewRing(0)
	r.Add("node0")
	r.Add("node1")
	before := make(map[string]string)
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("fp:%d", i)
		before[k] = r.Owner(k, nil)
	}
	r.Add("node0")
	r.Add("node1")
	for k, want := range before {
		if got := r.Owner(k, nil); got != want {
			t.Fatalf("re-adding members moved key %q: %q -> %q", k, want, got)
		}
	}
	if got := len(r.Nodes()); got != 2 {
		t.Fatalf("ring has %d members, want 2", got)
	}
}

// TestRingOwnershipGolden pins the ownership function: any change to the
// hash or the point layout shows up as a diff against this table — the
// cross-node agreement contract, frozen (FNV-64a is platform-stable).
func TestRingOwnershipGolden(t *testing.T) {
	r := cluster.NewRing(0)
	for _, id := range []string{"alpha", "beta", "gamma"} {
		r.Add(id)
	}
	golden := []struct{ key, owner string }{
		{"emcr/mcf/seed1", "alpha"},
		{"emcr/mcf/seed42", "alpha"},
		{"emcr/sphinx3/seed1", "gamma"},
		{"emcr/sphinx3/seed42", "beta"},
		{"emcr/soplex/seed1", "alpha"},
		{"emcr/soplex/seed42", "beta"},
		{"emcr/libquantum/seed1", "gamma"},
		{"emcr/libquantum/seed42", "gamma"},
		{"emcr/omnetpp/seed1", "alpha"},
		{"emcr/omnetpp/seed42", "beta"},
		{"emcr/milc/seed1", "gamma"},
		{"emcr/milc/seed42", "gamma"},
		{"emcr/gcc/seed1", "alpha"},
		{"emcr/gcc/seed42", "beta"},
		{"emcr/lbm/seed1", "beta"},
		{"emcr/lbm/seed42", "beta"},
	}
	for _, g := range golden {
		if got := r.Owner(g.key, nil); got != g.owner {
			t.Errorf("Owner(%q) = %q, want %q", g.key, got, g.owner)
		}
	}
}

// TestRingJoinMinimalChurn: adding a member moves a key only when the new
// member becomes its owner — consistent hashing's no-gratuitous-churn
// property: a join never reshuffles keys between survivors, so their
// queued work and cached results stay with the keys' owners.
func TestRingJoinMinimalChurn(t *testing.T) {
	before := cluster.NewRing(0)
	after := cluster.NewRing(0)
	for _, id := range []string{"node0", "node1"} {
		before.Add(id)
		after.Add(id)
	}
	after.Add("node2")
	moved := 0
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("jkey/%d/%d", i, i*31337)
		ob, oa := before.Owner(key, nil), after.Owner(key, nil)
		if oa != ob {
			if oa != "node2" {
				t.Fatalf("key %q churned %q -> %q without involving the joiner", key, ob, oa)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("joiner took no keys — insert is broken")
	}
}
