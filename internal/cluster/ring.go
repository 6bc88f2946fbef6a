// Package cluster turns N emcserve processes (or N in-process services)
// into one sweep fabric: a consistent-hash ring assigns every cache key a
// single owning node, so duplicate submissions serialize behind their first
// run cluster-wide regardless of which node receives them; completed
// results spread by pull — owner fetch, peer fetch, and anti-entropy — as
// the same CRC-framed EMCR records the durable cache writes to disk; and
// heartbeats promote the
// hung-job watchdog to node granularity, with deterministic re-dispatch of
// jobs owned by a dead node.
//
// Determinism is the load-bearing wall throughout (DESIGN.md §15): a key's
// result is a pure function of the key, so a split-brain double execution
// or a re-dispatch race produces bit-identical bytes and the
// content-addressed caches converge instead of conflicting.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// Ring is the consistent-hash ring: each node contributes `replicas`
// virtual points (FNV-64a of "id#i"), a key belongs to the first point at
// or clockwise after its own hash. Ownership is a pure function of the
// member set and the liveness predicate, so every node that agrees on
// those agrees on the owner — no coordination round needed.
type Ring struct {
	mu       sync.RWMutex
	replicas int
	points   []ringPoint
	nodes    map[string]bool
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds an empty ring with the given virtual-node count per member
// (<= 0 selects the default of 64).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = 64
	}
	return &Ring{replicas: replicas, nodes: map[string]bool{}}
}

// Add inserts a node's `replicas` virtual points "id#0".."id#replicas-1".
// Idempotent.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", node, i)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Equal hashes (vanishingly rare): break the tie by id so the sort,
		// and therefore ownership, is deterministic across nodes.
		return r.points[i].node < r.points[j].node
	})
}

// Owner returns the node owning key: the first clockwise point whose node
// the dead predicate (nil = none) does not reject. A dead owner's keys thus
// fall to the next distinct live node — the deterministic re-dispatch rule.
// Returns "" only when every member is rejected or the ring is empty.
func (r *Ring) Owner(key string, dead func(node string) bool) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if dead == nil || !dead(p.node) {
			return p.node
		}
	}
	return ""
}

// Nodes lists the member ids, sorted.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
