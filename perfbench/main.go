// Command perfbench is the repository's benchmark: it drives the simulator
// and the simulation service through their public Go functions, measures
// host time end to end (tracing off), or runs a separate traced pass for the
// per-layer numbers, and checks every output it measures. See README.md for
// the workloads and the metric table.
//
//	go run . --workload fig12 --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/sim"
)

// options sizes one invocation. defaultOptions is the benchmark; the tests
// shrink the budgets to smoke-test each workload in well under a second.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool

	fig12Instr  uint64 // instructions per core in each fig12 run
	streamInstr uint64 // instructions per core in the stream-wb run
	serveInstr  uint64 // instructions per core in each serve job
	serveJobs   int    // jobs per serve round (>= 1000 keeps 10 samples beyond p99)
	servePool   int    // distinct configurations the serve stream draws from
	serveCache  int    // service result-cache entries; below servePool
	serveOpens  int    // service.Open timings per serve round

	capPerInstr, capSlack uint64 // MaxCycles per instruction per core, plus slack
}

func defaultOptions() options {
	return options{
		workload:    "fig12",
		seed:        1,
		seconds:     30,
		fig12Instr:  6000,
		streamInstr: 100000,
		serveInstr:  1000,
		serveJobs:   1000,
		servePool:   80,
		serveCache:  20,
		serveOpens:  101,
		capPerInstr: 100,
		capSlack:    200_000,
	}
}

var workloadNames = []string{"fig12", "stream-wb", "serve"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags, runs the workload and prints the report. It returns the
// process exit code: 0 whenever a report was printed (failed simulations
// are counted in it, not signalled by the exit code), 2 for bad flags, 1
// when the benchmark itself could not run.
func run(args []string, stdout, stderr io.Writer) int {
	o := defaultOptions()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", o.workload, "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", o.seed, "input seed (1 is the seed the figures were tuned on)")
	fs.Float64Var(&o.seconds, "seconds", o.seconds, "measurement time in seconds (at least one repetition runs)")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	o.traced = *traceFlag == 1
	if err := runBench(o, stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// workload is one traffic mix. iterate runs it once; the benchmark repeats it
// until the measurement time is spent and reports medians over repetitions.
type workload interface {
	// prepare does untimed set-up the checks need (reference runs).
	prepare() error
	// iterate runs one repetition; traced asks it to time the benchmark
	// spans around its calls into the layers.
	iterate(traced bool) (sample, error)
	// layers returns the per-layer values of a traced run.
	layers(traced []sample) (layerSet, error)
}

// sample is one measured repetition of a workload.
type sample struct {
	wall   time.Duration   // the whole repetition
	setup  time.Duration   // sim.New total, or service.Open median
	run    time.Duration   // host time of the run phase
	cycles uint64          // simulated cycles in the run phase
	instr  uint64          // simulated instructions retired in the run phase
	alloc  uint64          // bytes allocated (runtime.MemStats.TotalAlloc)
	jobs   []time.Duration // per-job latency: one simulation, or one service job
}

func newWorkload(b *bench) (workload, error) {
	switch b.o.workload {
	case "fig12":
		return &fig12{b: b}, nil
	case "stream-wb":
		return &streamWB{b: b}, nil
	case "serve":
		return &serve{b: b}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", b.o.workload, strings.Join(workloadNames, ", "))
}

func runBench(o options, out io.Writer) error {
	b := &bench{o: o, log: out, hashes: map[string]uint64{}}
	w, err := newWorkload(b)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%g trace=%t GOMAXPROCS=%d\n",
		o.workload, o.seed, o.seconds, o.traced, runtime.GOMAXPROCS(0))
	if err := w.prepare(); err != nil {
		return err
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	r := &report{}
	if !o.traced {
		samples, err := measure(w, budget, false)
		if err != nil {
			return err
		}
		endToEnd(r, out, samples)
	} else {
		// The untraced half gives the baseline the tracing overhead is
		// measured against; the traced half runs under the CPU profiler.
		plain, err := measure(w, budget/2, false)
		if err != nil {
			return err
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		traced, err := measure(w, budget/2, true)
		pprof.StopCPUProfile()
		if err != nil {
			return err
		}
		shares, err := shareByLayer(prof.Bytes())
		if err != nil {
			return err
		}
		ls, err := w.layers(traced)
		if err != nil {
			return err
		}
		overhead := medianOf(traced, wallS) - medianOf(plain, wallS)
		fmt.Fprintf(out, "traced run: %d profile samples over %d traced repetitions; "+
			"tracing overhead %.4f s on a median untraced wall_s of %.4f s (%d repetitions)\n",
			shares.Samples, len(traced), overhead, medianOf(plain, wallS), len(plain))
		perLayer(r, shares, ls, overhead, b.failFrac())
	}
	fmt.Fprintf(out, "operations: %d attempted, %d failed (fail_frac %.4f), %d failed output checks\n",
		b.attempted, b.failed, b.failFrac(), b.badChecks)
	return r.print(out, b.badChecks == 0, b.attempted, b.failed)
}

// measure repeats w until budget is spent: it starts another repetition only
// if the mean repetition so far still fits. At least one repetition runs.
func measure(w workload, budget time.Duration, traced bool) ([]sample, error) {
	start := time.Now()
	var out []sample
	for {
		// Each repetition starts from a collected heap, so one repetition's
		// garbage does not land in the next one's time.
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		s, err := w.iterate(traced)
		s.wall = time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		s.alloc = m1.TotalAlloc - m0.TotalAlloc
		out = append(out, s)
		el := time.Since(start)
		if el+el/time.Duration(len(out)) > budget {
			return out, nil
		}
	}
}

func wallS(s sample) float64 { return s.wall.Seconds() }

func medianOf(ss []sample, f func(sample) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return median(xs)
}

// endToEnd adds the end-to-end metrics: medians over repetitions, and job
// latency percentiles over every job of every repetition.
func endToEnd(r *report, log io.Writer, ss []sample) {
	var lat []float64
	perRep := len(ss[0].jobs)
	for _, s := range ss {
		for _, d := range s.jobs {
			lat = append(lat, float64(d)/float64(time.Millisecond))
		}
		perRep = min(perRep, len(s.jobs))
	}
	// The tail is picked from one repetition's job count, which the workload
	// fixes, so it names the same percentile however many repetitions fit.
	tail := tailPercentile(perRep, 99)
	fmt.Fprintf(log, "%d repetitions; job latency over %d jobs (%d per repetition); job_p99_ms reports p%g, "+
		"the highest percentile up to p99 with %d or more of one repetition's jobs beyond it\n",
		len(ss), len(lat), perRep, tail, minBeyond)
	fmt.Fprint(log, "wall_s per repetition:")
	for _, s := range ss {
		fmt.Fprintf(log, " %.4f", s.wall.Seconds())
	}
	fmt.Fprintln(log)
	r.add("setup_s", medianOf(ss, func(s sample) float64 { return s.setup.Seconds() }), "s")
	r.add("wall_s", medianOf(ss, wallS), "s")
	r.add("ns_per_cycle", medianOf(ss, func(s sample) float64 {
		return ratio(float64(s.run.Nanoseconds()), float64(s.cycles))
	}), "ns")
	r.add("minstr_per_s", medianOf(ss, func(s sample) float64 {
		return ratio(float64(s.instr)/1e6, s.run.Seconds())
	}), "Minstr/s")
	r.add("alloc_mb", medianOf(ss, func(s sample) float64 { return float64(s.alloc) / 1e6 }), "MB")
	r.add("peak_rss_mb", peakRSSMB(), "MB")
	r.add("jobs_per_s", medianOf(ss, func(s sample) float64 {
		return ratio(float64(len(s.jobs)), s.wall.Seconds())
	}), "1/s")
	r.add("job_p50_ms", percentile(lat, 50), "ms")
	r.add("job_p99_ms", percentile(lat, tail), "ms")
}

// peakRSSMB is the process's peak resident set (getrusage ru_maxrss, KiB on
// Linux) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// layerSet is what a workload contributes to the traced run's per-layer
// metrics; layers a workload does not exercise stay zero.
type layerSet struct {
	counts simCounts

	traceGenS, simNewS, simRunS, figDeriveS   float64
	submitUs, queuedMs, runningMs, cacheHitUs float64

	hitFrac, coalescedFrac, executed, queueFull, retries float64

	gmeans [4]float64 // Fig. 12 gmean speedup vs none, ghb, stream, markov+stream
}

// perLayer adds every per-layer metric in a fixed order.
func perLayer(r *report, sh layerShares, ls layerSet, overhead, failFrac float64) {
	for _, l := range layers {
		r.add(l+".host_pct", sh.Pct[l], "%")
	}
	r.add("bench.profile_samples", float64(sh.Samples), "count")
	r.add("bench.trace_overhead_s", overhead, "s")
	r.add("bench.fail_frac", failFrac, "ratio")

	r.add("trace.gen_s", ls.traceGenS, "s")
	r.add("sim.new_s", ls.simNewS, "s")
	r.add("sim.run_s", ls.simRunS, "s")
	r.add("figures.derive_s", ls.figDeriveS, "s")
	r.add("service.submit_us", ls.submitUs, "us")
	r.add("service.queued_ms_p50", ls.queuedMs, "ms")
	r.add("service.running_ms_p50", ls.runningMs, "ms")
	r.add("service.cache_hit_us_p50", ls.cacheHitUs, "us")

	ls.counts.report(r)

	for i, pf := range fig12Columns {
		r.add("figures.gmean_vs_"+pf, ls.gmeans[i], "ratio")
	}
	r.add("service.cache_hit_frac", ls.hitFrac, "ratio")
	r.add("service.coalesced_frac", ls.coalescedFrac, "ratio")
	r.add("service.executed", ls.executed, "count")
	r.add("service.queue_full_rejects", ls.queueFull, "count")
	r.add("service.retries", ls.retries, "count")
}

// ---- Runs, checks and failure accounting ------------------------------------

// bench holds what one invocation shares across workloads: the options, the
// human log, the operation tally, and the result hash of every configuration
// seen so far (a repeat must hash equal).
type bench struct {
	o   options
	log io.Writer

	attempted, failed, badChecks int
	hashes                       map[string]uint64
}

func (b *bench) failFrac() float64 { return ratio(float64(b.failed), float64(b.attempted)) }

// capped returns cfg with its MaxCycles derived from the instruction
// budget: capPerInstr cycles per instruction plus capSlack. The default sits
// far above the slowest configuration's cycles per instruction, so only a
// run that stopped making progress reaches it, and it does so in seconds
// rather than after the simulator's default 200M cycles.
func (b *bench) capped(cfg sim.Config) sim.Config {
	cfg.MaxCycles = b.o.capPerInstr*cfg.InstrPerCore + b.o.capSlack
	return cfg
}

// timedRun builds and runs cfg with the cycle cap, timing the two phases.
func (b *bench) timedRun(cfg sim.Config) (res *sim.Result, skipped uint64, setup, run time.Duration, err error) {
	t0 := time.Now()
	sys, err := sim.New(b.capped(cfg))
	setup = time.Since(t0)
	if err != nil {
		return nil, 0, setup, 0, err
	}
	t1 := time.Now()
	res, err = sys.Run()
	run = time.Since(t1)
	if err != nil {
		return nil, 0, setup, run, err
	}
	return res, sys.SkippedCycles(), setup, run, nil
}

// describe names a configuration in failure lines.
func describe(cfg sim.Config) string {
	return fmt.Sprintf("bench=%s pf=%s emc=%t n=%d seed=%d",
		strings.Join(cfg.Benchmarks, ","), cfg.Prefetcher, cfg.EMCEnabled, cfg.InstrPerCore, cfg.Seed)
}

// outcome counts one attempted operation on cfg: a run error is a failure;
// a result is checked, and a failed check is a failure too. It reports
// whether the operation succeeded.
func (b *bench) outcome(cfg sim.Config, res *sim.Result, err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(b.log, "FAIL %s %s: %v\n", b.o.workload, describe(cfg), err)
		return false
	}
	if problems := b.check(cfg, res); len(problems) > 0 {
		b.failed++
		b.badChecks++
		fmt.Fprintf(b.log, "FAIL %s %s: output check: %s\n", b.o.workload, describe(cfg), strings.Join(problems, "; "))
		return false
	}
	return true
}

// check verifies one result: every core retired its budget, the EMC
// computed every load address as the trace recorded it, and the result
// hashes equal to every earlier result of the same configuration.
func (b *bench) check(cfg sim.Config, res *sim.Result) []string {
	var problems []string
	for i, c := range res.Cores {
		if c.Stats.Retired != cfg.InstrPerCore {
			problems = append(problems, fmt.Sprintf("core %d retired %d of %d", i, c.Stats.Retired, cfg.InstrPerCore))
		}
	}
	if len(res.Cores) != len(cfg.Benchmarks) {
		problems = append(problems, fmt.Sprintf("%d core results for %d cores", len(res.Cores), len(cfg.Benchmarks)))
	}
	for i, e := range res.EMC {
		if e.AddrMismatches != 0 {
			problems = append(problems, fmt.Sprintf("EMC %d: %d address mismatches", i, e.AddrMismatches))
		}
	}
	capped := b.capped(cfg)
	key, err := capped.Fingerprint()
	if err != nil {
		return append(problems, err.Error())
	}
	h := res.Hash()
	if prev, ok := b.hashes[key]; ok && prev != h {
		problems = append(problems, fmt.Sprintf("result hash %016x differs from an earlier run's %016x", h, prev))
	} else if !ok {
		b.hashes[key] = h
	}
	return problems
}
