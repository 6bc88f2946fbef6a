package sim

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// hMixes are the paper's Table-3 quad-core workloads H1–H10, in order (the
// list the Fig. 12 sweep runs).
var hMixes = [][]string{
	{"bwaves", "lbm", "milc", "omnetpp"},
	{"soplex", "omnetpp", "bwaves", "libquantum"},
	{"sphinx3", "mcf", "omnetpp", "milc"},
	{"mcf", "sphinx3", "soplex", "libquantum"},
	{"lbm", "mcf", "libquantum", "bwaves"},
	{"lbm", "soplex", "mcf", "milc"},
	{"bwaves", "libquantum", "sphinx3", "omnetpp"},
	{"omnetpp", "soplex", "mcf", "bwaves"},
	{"lbm", "mcf", "libquantum", "soplex"},
	{"libquantum", "bwaves", "soplex", "omnetpp"},
}

var allPrefetchers = []PrefetcherKind{PFNone, PFGHB, PFStream, PFMarkovStream}

// sweepMode is one of the latency-hiding setups the sweeps cross with every
// workload and prefetcher.
type sweepMode struct {
	name          string
	emc, runahead bool
}

var (
	modeBase     = sweepMode{"base", false, false}
	modeEMC      = sweepMode{"emc", true, false}
	modeRunahead = sweepMode{"runahead", false, true}
	modeBoth     = sweepMode{"emc+runahead", true, true}
)

// sweepPoint is one configuration of a workload x prefetcher x mode x seed
// sweep.
type sweepPoint struct {
	mix  int // index into hMixes (H1 is 0)
	pf   PrefetcherKind
	mode sweepMode
	seed uint64
}

func (p sweepPoint) String() string {
	return fmt.Sprintf("H%d %s %s %d", p.mix+1, p.pf, p.mode.name, p.seed)
}

// config builds the point's configuration at the given instruction budget,
// with a cycle cap derived from the budget (a hang fails fast instead of
// running to the default 200M-cycle cap).
func (p sweepPoint) config(budget uint64) Config {
	cfg := Default(hMixes[p.mix])
	cfg.InstrPerCore = budget
	cfg.Seed = p.seed
	cfg.Prefetcher = p.pf
	cfg.EMCEnabled = p.mode.emc
	cfg.RunaheadEnabled = p.mode.runahead
	cfg.MaxCycles = 100*budget + 200_000
	return cfg
}

// sweepPoints enumerates mixes x prefetchers x modes x seeds in table order.
func sweepPoints(modes []sweepMode, seeds []uint64) []sweepPoint {
	var pts []sweepPoint
	for mix := range hMixes {
		for _, pf := range allPrefetchers {
			for _, m := range modes {
				for _, seed := range seeds {
					pts = append(pts, sweepPoint{mix, pf, m, seed})
				}
			}
		}
	}
	return pts
}

// sweepOutcome is one point's run: its Result, or the error that ended it.
type sweepOutcome struct {
	r   *Result
	err error
}

// runSweep runs every point at the budget on GOMAXPROCS workers and returns
// the outcomes in point order.
func runSweep(pts []sweepPoint, budget uint64) []sweepOutcome {
	out := make([]sweepOutcome, len(pts))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				sys, err := New(pts[i].config(budget))
				if err != nil {
					out[i].err = err
					continue
				}
				out[i].r, out[i].err = sys.Run()
			}
		}()
	}
	for i := range pts {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

const (
	goldenPath   = "testdata/hash_golden.txt"
	goldenBudget = 2000
)

// TestResultHashGolden pins Result.Hash() and Cycles for H1–H10 x every
// prefetcher x {base, EMC, runahead, EMC+runahead} x seeds {1, 2} at a small
// budget. It is the bit-exactness guard for changes that must not move any
// simulated outcome (host-speed work on the core, the memory system, the
// scheduler). On a mismatch it prints the whole table in the golden file's
// format; a change that moves results on purpose replaces the file with it
// and says why.
func TestResultHashGolden(t *testing.T) {
	pts := sweepPoints([]sweepMode{modeBase, modeEMC, modeRunahead, modeBoth}, []uint64{1, 2})
	var got strings.Builder
	fmt.Fprintf(&got, "# mix prefetcher mode seed hash cycles (InstrPerCore=%d)\n", goldenBudget)
	for i, o := range runSweep(pts, goldenBudget) {
		if o.err != nil {
			t.Fatalf("%v: %v", pts[i], o.err)
		}
		fmt.Fprintf(&got, "%v %#016x %d\n", pts[i], o.r.Hash(), o.r.Cycles)
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v\nfull table:\n%s", err, got.String())
	}
	if got.String() == string(want) {
		return
	}
	wl := strings.Split(string(want), "\n")
	for i, l := range strings.Split(got.String(), "\n") {
		if i >= len(wl) || wl[i] != l {
			w := "<missing>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Errorf("line %d:\n got: %s\nwant: %s", i+1, l, w)
		}
	}
	t.Fatalf("results diverge from %s; full table:\n%s", goldenPath, got.String())
}
