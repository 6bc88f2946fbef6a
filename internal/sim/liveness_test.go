package sim

import (
	"testing"
)

// TestLivenessH4Seed4 is the regression test for a hang in
// mcf,sphinx3,soplex,libquantum (H4) + EMC at seed 4, n=12000: a slice-path
// launcher held by both the slice's outstanding entry and the MC's pending
// entry was returned to the request pool twice, two live requests then
// shared one struct, and a fill was lost — core 3's ROB head waited forever
// on an MSHR that never filled. The cycle counts are the ones the simulator
// produced before request pooling was introduced.
func TestLivenessH4Seed4(t *testing.T) {
	for _, tc := range []struct {
		pf     PrefetcherKind
		cycles uint64
	}{
		{PFStream, 197_171},
		{PFMarkovStream, 196_967},
	} {
		tc := tc
		t.Run(string(tc.pf), func(t *testing.T) {
			t.Parallel()
			p := sweepPoint{mix: 3, pf: tc.pf, mode: modeEMC, seed: 4}
			r := mustRun(t, p.config(12000))
			if r.Cycles != tc.cycles {
				t.Fatalf("cycles = %d, want %d", r.Cycles, tc.cycles)
			}
		})
	}
}

// TestLivenessSweep is the seeded liveness guard: every H-mix x prefetcher
// x {EMC, runahead, both} at seeds the hash golden does not pin must finish
// its instruction budget inside a cycle cap derived from that budget. A
// hang fails fast and names its configuration. `make liveness` runs the
// wide version (TestLivenessSweepWide).
func TestLivenessSweep(t *testing.T) {
	checkLiveness(t, []uint64{3, 4, 5}, 2000)
}

func checkLiveness(t *testing.T, seeds []uint64, budget uint64) {
	t.Helper()
	pts := sweepPoints([]sweepMode{modeEMC, modeRunahead, modeBoth}, seeds)
	for i, o := range runSweep(pts, budget) {
		if o.err != nil {
			t.Errorf("%v: %v", pts[i], o.err)
			continue
		}
		for c, core := range o.r.Cores {
			if core.Stats.Retired != budget {
				t.Errorf("%v: core %d retired %d of %d", pts[i], c, core.Stats.Retired, budget)
			}
		}
	}
}
