package cluster

import (
	"context"

	"repro/internal/sim"
)

// FetchRecord exposes the owner/peer record fetch to the external tests:
// pull key's frame from node and seed it through acceptFrame, returning
// the rejection error a torn frame produces.
func (n *Node) FetchRecord(ctx context.Context, node, key string) (*sim.Result, error) {
	return n.fetchRecord(ctx, node, key, &n.fetched)
}
