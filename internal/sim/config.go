package sim

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/emc"
	"repro/internal/mem/cache"
	"repro/internal/mem/dram"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vm"
)

// PrefetcherKind selects the LLC prefetcher configuration of Table 1.
type PrefetcherKind string

// The prefetcher configurations evaluated by the paper.
const (
	PFNone         PrefetcherKind = "none"
	PFGHB          PrefetcherKind = "ghb"
	PFStream       PrefetcherKind = "stream"
	PFMarkovStream PrefetcherKind = "markov+stream"
)

// Config describes one simulated system + workload.
type Config struct {
	// Benchmarks names one SPEC profile per core; its length sets the core
	// count (4 or 8 in the paper).
	Benchmarks []string

	// InstrPerCore bounds each core's trace; the run ends when every core
	// has retired its budget (shared structures stay live until the last
	// finishes, matching the paper's methodology).
	InstrPerCore uint64

	Seed uint64

	Prefetcher PrefetcherKind
	EMCEnabled bool

	// RunaheadEnabled turns on the runahead-execution comparison baseline
	// at every core (see internal/cpu/runahead.go).
	RunaheadEnabled bool

	// UseBranchPredictor replaces trace-carried mispredict flags with the
	// Table-1 hybrid predictor running on actual branch outcomes.
	UseBranchPredictor bool

	// MCs is the number of memory controllers (1, or 2 for Fig. 11b).
	MCs int

	// DRAM geometry/timing/scheduling (Table 1 defaults by core count).
	Geometry dram.Geometry
	Timing   dram.Timing
	Sched    dram.SchedPolicy

	// LLC: one slice per core.
	LLCSliceBytes  int
	LLCLatency     int
	LLCFillLatency int

	PageShift uint

	// IdealDependentHits serves dependent misses at LLC-hit latency without
	// touching DRAM — the idealization of Fig. 2.
	IdealDependentHits bool

	// MagicChains completes installed chains instantly at trigger time with
	// functionally computed live-outs (diagnostic upper bound on the EMC
	// mechanism; not a real hardware point).
	MagicChains bool

	// MaxCycles aborts runaway simulations.
	MaxCycles uint64

	// DisableCycleSkip turns off the event-horizon scheduler, ticking every
	// cycle. Results are bit-identical either way (see
	// TestCycleSkipDeterminism); this exists for that guard and for debugging.
	DisableCycleSkip bool

	EMCCfg emc.Config

	// Obs enables request-lifecycle tracing and latency attribution (see
	// internal/obs). Tracing observes timestamps the simulator produces
	// anyway and never changes simulation outcomes; with Obs.Enabled false
	// every instrumentation site is a single nil test.
	Obs obs.Config

	// Metrics, when non-nil, receives periodic live snapshots of the
	// system's counters (for /metrics, /debug/vars). Each System registers
	// its own Group tagged with MetricsLabels.
	Metrics       *obs.Registry `json:"-"`
	MetricsLabels map[string]string

	// CounterInterval, when >0, samples every published counter into an
	// in-memory time series each N cycles (System.CounterLog), serialized
	// to JSON by the cmds.
	CounterInterval uint64

	// CoreTweak optionally adjusts each core's configuration (ablations).
	// Function-valued: such configs have no canonical identity and cannot
	// be fingerprinted (see Fingerprint).
	CoreTweak func(*cpu.Config) `json:"-"`

	// OnChain, when set, observes every chain as it is shipped to the EMC
	// (inspection/debugging; must not mutate the chain).
	OnChain func(*cpu.Chain) `json:"-"`
}

// Default returns the Table-1 configuration for the given benchmarks, with
// geometry picked by core count.
func Default(benchmarks []string) Config {
	cores := len(benchmarks)
	geo := dram.QuadCoreGeometry()
	mcs := 1
	if cores >= 8 {
		geo = dram.EightCoreGeometry()
	}
	ecfg := emc.DefaultConfig(cores)
	ecfg.PageShift = vm.LargePageShift
	return Config{
		Benchmarks:     benchmarks,
		InstrPerCore:   30000,
		Seed:           1,
		Prefetcher:     PFNone,
		MCs:            mcs,
		Geometry:       geo,
		Timing:         dram.DDR3(),
		Sched:          dram.SchedBatch,
		LLCSliceBytes:  1 << 20,
		LLCLatency:     18,
		LLCFillLatency: 4,
		PageShift:      vm.LargePageShift,
		MaxCycles:      200_000_000,
		EMCCfg:         ecfg,
	}
}

// MaxCores bounds len(Benchmarks), one core per entry. New allocates about
// 0.51 MB per core before the first cycle (with no prefetcher or with
// Markov+stream), and one job body (an HTTP submit or a forwarded cluster
// submit) names the whole benchmark list, so without a bound a 1 MiB body
// could ask for ~170k cores. The paper's largest system is Fig. 14's eight
// cores; 16 leaves room to scale past it while a System stays around 8 MB.
const MaxCores = 16

// Every core needs a bit in an LLC line's presence mask: this constant
// stops compiling if MaxCores outgrows cache.PresenceBits.
const _ uint = cache.PresenceBits - MaxCores

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if len(c.Benchmarks) == 0 {
		return fmt.Errorf("sim: no benchmarks")
	}
	if len(c.Benchmarks) > MaxCores {
		return fmt.Errorf("sim: %d cores exceeds the %d-core limit", len(c.Benchmarks), MaxCores)
	}
	for _, b := range c.Benchmarks {
		if _, err := trace.ByName(b); err != nil {
			return err
		}
	}
	if c.MCs != 1 && c.MCs != 2 {
		return fmt.Errorf("sim: MCs must be 1 or 2, got %d", c.MCs)
	}
	if c.Geometry.Channels%c.MCs != 0 {
		return fmt.Errorf("sim: %d channels not divisible across %d MCs",
			c.Geometry.Channels, c.MCs)
	}
	if c.InstrPerCore == 0 {
		return fmt.Errorf("sim: InstrPerCore is zero")
	}
	switch c.Prefetcher {
	case PFNone, PFGHB, PFStream, PFMarkovStream:
	default:
		return fmt.Errorf("sim: unknown prefetcher %q", c.Prefetcher)
	}
	return nil
}
