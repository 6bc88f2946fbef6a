package main

import (
	"fmt"
	"time"

	emcsim "repro"
	"repro/internal/figures"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fig12Columns name the Fig. 12 baselines in table-column order, and
// fig12Paper is the paper's average EMC speedup over each of them.
var (
	fig12Columns = []string{"none", "ghb", "stream", "mkst"}
	fig12Paper   = []float64{1.15, 1.13, 1.10, 1.11}
)

// runRecord is one simulation of a repetition.
type runRecord struct {
	cfg     sim.Config
	res     *sim.Result
	skipped uint64
}

// addRun folds one finished simulation into a sample.
func (s *sample) addRun(res *sim.Result, setup, run time.Duration) {
	s.setup += setup
	s.jobs = append(s.jobs, setup+run)
	if res == nil {
		return // a failed run's time counts in wall_s and job latency only
	}
	s.run += run
	s.cycles += res.Cycles
	for _, c := range res.Cores {
		s.instr += c.Stats.Retired
	}
}

// genPass times a standalone trace-generation pass over the profiles, seeds
// and budgets the given runs consume: the same NewGenerator/Next calls
// sim.New wires to each core, with the per-core seed derivation sim.New
// uses.
func genPass(cfgs []sim.Config) (time.Duration, error) {
	t0 := time.Now()
	for _, cfg := range cfgs {
		for i, name := range cfg.Benchmarks {
			p, err := trace.ByName(name)
			if err != nil {
				return 0, err
			}
			g := trace.NewGenerator(p, cfg.Seed+uint64(i)*0x9E3779B9)
			for n := uint64(0); n < cfg.InstrPerCore; n++ {
				g.Next()
			}
		}
	}
	return time.Since(t0), nil
}

// ---- fig12 -------------------------------------------------------------------

// fig12 is the paper's Fig. 12 sweep at a reduced budget: H1-H10 x four
// prefetchers x EMC off/on, 80 quad-core runs, one at a time, through
// figures.Suite with every run routed through bench.timedRun.
type fig12 struct {
	b *bench

	first   []runRecord // the first repetition's runs, in run order
	table   *figures.Table
	deriveS []float64 // memoised-table derivation times of traced repetitions
}

func (w *fig12) prepare() error { return nil }

func (w *fig12) iterate(traced bool) (sample, error) {
	var s sample
	var runs []runRecord
	suite := figures.NewSuite(figures.Options{
		InstrPerCore:  w.b.o.fig12Instr,
		InstrPerCore8: w.b.o.fig12Instr,
		Seed:          w.b.o.seed,
		Parallel:      1,
		Runner: func(cfg sim.Config) (*sim.Result, error) {
			res, skipped, setup, run, err := w.b.timedRun(cfg)
			s.addRun(res, setup, run)
			if !w.b.outcome(cfg, res, err) {
				return nil, fmt.Errorf("%s: failed", describe(cfg))
			}
			runs = append(runs, runRecord{cfg, res, skipped})
			return res, nil
		},
	})
	tab, err := suite.Fig12()
	if w.first == nil {
		w.first = runs
		w.printReference(tab)
	}
	if err == nil {
		w.table = tab
		if traced {
			// Every run is memoised now: this times the table derivation.
			t0 := time.Now()
			if _, err := suite.Fig12(); err != nil {
				return s, err
			}
			w.deriveS = append(w.deriveS, time.Since(t0).Seconds())
		}
	}
	return s, nil
}

func (w *fig12) layers(traced []sample) (layerSet, error) {
	var ls layerSet
	cfgs := make([]sim.Config, len(w.first))
	for i, r := range w.first {
		ls.counts.add(r.res, r.skipped)
		cfgs[i] = r.cfg
	}
	gen, err := genPass(cfgs)
	if err != nil {
		return ls, err
	}
	ls.traceGenS = gen.Seconds()
	ls.simNewS = medianOf(traced, func(s sample) float64 { return s.setup.Seconds() })
	ls.simRunS = medianOf(traced, func(s sample) float64 { return s.run.Seconds() })
	ls.figDeriveS = median(w.deriveS)
	if w.table != nil {
		gm := w.table.Rows[len(w.table.Rows)-1].Values
		copy(ls.gmeans[:], gm)
	}
	return ls, nil
}

// printReference sets the model's Fig. 12 gmeans beside the paper's.
func (w *fig12) printReference(tab *figures.Table) {
	log := w.b.log
	if tab == nil {
		fmt.Fprintln(log, "Fig. 12 reference: the sweep had failed runs, so there are no gmeans to compare")
		return
	}
	gm := tab.Rows[len(tab.Rows)-1].Values
	fmt.Fprintf(log, "Fig. 12 gmean EMC speedup at %d instr/core, seed %d, against the paper:\n",
		w.b.o.fig12Instr, w.b.o.seed)
	for i, c := range fig12Columns {
		fmt.Fprintf(log, "  vs-%-7s model %+6.1f%%   paper %+6.1f%%   model-paper %+6.1f pp\n",
			c, 100*(gm[i]-1), 100*(fig12Paper[i]-1), 100*(gm[i]-fig12Paper[i]))
	}
	fmt.Fprintln(log, "  The model is unvalidated against hardware: the paper's figures are the only reference.")
	fmt.Fprintln(log, "  The modelled caches start empty: there is no warm-up before statistics are collected.")
}

// ---- stream-wb ---------------------------------------------------------------

// streamWB is H1 with the stream prefetcher and the EMC off at a longer
// budget: bandwidth-bound, with writebacks beside the reads.
type streamWB struct {
	b *bench

	first *runRecord
}

func (w *streamWB) prepare() error { return nil }

func (w *streamWB) config() sim.Config {
	cfg := sim.Default(emcsim.Workloads()[0].Benchmarks) // H1
	cfg.Prefetcher = sim.PFStream
	cfg.EMCEnabled = false
	cfg.InstrPerCore = w.b.o.streamInstr
	cfg.Seed = w.b.o.seed
	return cfg
}

func (w *streamWB) iterate(traced bool) (sample, error) {
	var s sample
	cfg := w.config()
	res, skipped, setup, run, err := w.b.timedRun(cfg)
	s.addRun(res, setup, run)
	if w.b.outcome(cfg, res, err) && w.first == nil {
		w.first = &runRecord{cfg, res, skipped}
	}
	return s, nil
}

func (w *streamWB) layers(traced []sample) (layerSet, error) {
	var ls layerSet
	if w.first != nil {
		ls.counts.add(w.first.res, w.first.skipped)
	}
	gen, err := genPass([]sim.Config{w.config()})
	if err != nil {
		return ls, err
	}
	ls.traceGenS = gen.Seconds()
	ls.simNewS = medianOf(traced, func(s sample) float64 { return s.setup.Seconds() })
	ls.simRunS = medianOf(traced, func(s sample) float64 { return s.run.Seconds() })
	return ls, nil
}
