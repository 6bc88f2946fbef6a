//go:build liveness

package sim

import "testing"

// TestLivenessSweepWide is the wide liveness sweep behind `make liveness`
// (build tag liveness): seeds 1-10 at 12000 instructions per core.
func TestLivenessSweepWide(t *testing.T) {
	checkLiveness(t, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 12000)
}
