package cluster

import (
	"sort"
	"sync"
	"time"
)

// Member is one fabric node's identity as exchanged through join: a stable
// id (the ring hashes it) and, for HTTP fabrics, the advertised base URL.
type Member struct {
	ID   string `json:"id"`
	Addr string `json:"addr,omitempty"`
}

// memberRow is a membership snapshot row (stats and tests).
type memberRow struct {
	Member
	Alive    bool
	Self     bool
	LastBeat time.Time
}

// membership is the liveness table: every node this node has heard of, with
// the last successful heartbeat. Members are never removed — a dead node is
// skipped by the ring's liveness predicate and revived by the next
// successful heartbeat, so a healed partition converges without a
// membership epoch protocol.
type membership struct {
	mu sync.Mutex
	m  map[string]*memberRow
}

func newMembership() *membership { return &membership{m: map[string]*memberRow{}} }

// upsert adds a member if unknown (returning true), or refreshes its
// address if it re-announced with one.
func (ms *membership) upsert(mem Member, self bool, now time.Time) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if row, ok := ms.m[mem.ID]; ok {
		if mem.Addr != "" {
			row.Addr = mem.Addr
		}
		return false
	}
	ms.m[mem.ID] = &memberRow{Member: mem, Alive: true, Self: self, LastBeat: now}
	return true
}

// addr resolves a member id to its advertised address.
func (ms *membership) addr(id string) (string, bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	row, ok := ms.m[id]
	if !ok {
		return "", false
	}
	return row.Addr, true
}

// markDead records a failed reach of id (the fast path: any outbound RPC
// but the heartbeat probe that found id unreachable does not wait for the
// heartbeat sweep).
func (ms *membership) markDead(id string) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if row, ok := ms.m[id]; ok && !row.Self {
		row.Alive = false
	}
}

// markAlive records evidence that id is up: an answered RPC to it (a
// heartbeat included) or an inbound RPC from it.
func (ms *membership) markAlive(id string, now time.Time) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if row, ok := ms.m[id]; ok {
		row.Alive = true
		row.LastBeat = now
	}
}

// isDead is the ring's liveness predicate.
func (ms *membership) isDead(id string) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	row, ok := ms.m[id]
	return ok && !row.Alive
}

// sweep marks every non-self member whose last heartbeat is older than
// timeout as dead.
func (ms *membership) sweep(now time.Time, timeout time.Duration) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	for _, row := range ms.m {
		if !row.Self && row.Alive && now.Sub(row.LastBeat) > timeout {
			row.Alive = false
		}
	}
}

// peers lists every member except self, sorted by id (dead included — the
// heartbeat loop probes dead peers too, which is how they revive).
func (ms *membership) peers(selfID string) []Member {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make([]Member, 0, len(ms.m))
	for _, row := range ms.m {
		if row.ID != selfID {
			out = append(out, row.Member)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// alivePeers lists the currently live members except self, sorted by id.
func (ms *membership) alivePeers(selfID string) []Member {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make([]Member, 0, len(ms.m))
	for _, row := range ms.m {
		if row.ID != selfID && row.Alive {
			out = append(out, row.Member)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// list returns every member (the join response payload), sorted by id.
func (ms *membership) list() []Member {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make([]Member, 0, len(ms.m))
	for _, row := range ms.m {
		out = append(out, row.Member)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// rows snapshots the peer rows (stats), sorted by id, excluding self.
func (ms *membership) rows(selfID string) []memberRow {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make([]memberRow, 0, len(ms.m))
	for _, row := range ms.m {
		if row.ID != selfID {
			out = append(out, *row)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
