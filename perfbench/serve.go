package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	emcsim "repro"
	"repro/internal/obs/span"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
)

// serve drives an in-process service with two closed-loop clients: each
// submits its next job only after the previous result arrived. The job
// stream draws small quad-core jobs from a pool of distinct configurations
// (Fig. 12's 80) larger than the result cache; about a third of the jobs repeat one of the
// last few configurations, so jobs hit the cache, coalesce with an
// in-flight twin, or miss after an LRU eviction. Each repetition is one
// round of serveJobs jobs against a freshly opened service.
type serve struct {
	b *bench

	pool   []sim.Config
	stream []int // pool index of each job

	// Reference: one direct run of every pool configuration.
	refCycles, refInstr []uint64
	refNew, refRun      time.Duration
	counts              simCounts

	// Traced rounds only.
	submitUs, queuedMs, runningMs, cacheHitUs         []float64
	jobs, hits, coalesced, executed, rejects, retries uint64
}

const (
	serveClients = 2
	serveWorkers = 2
	serveRepeat  = 1.0 / 3 // share of jobs that repeat a recent configuration
	serveRecent  = 4       // how far back a repeat reaches
)

func (w *serve) prepare() error {
	o := w.b.o
	// The pool is Fig. 12's configurations: every H1-H10 mix under every
	// prefetcher, EMC off and on. The seed picks the trace seed and the job
	// order, not the kind of work, so seeds stay comparable.
	pfs := []sim.PrefetcherKind{sim.PFNone, sim.PFGHB, sim.PFStream, sim.PFMarkovStream}
pool:
	for _, mix := range emcsim.Workloads() {
		for _, pf := range pfs {
			for _, emc := range []bool{false, true} {
				if len(w.pool) == o.servePool {
					break pool
				}
				cfg := sim.Default(mix.Benchmarks)
				cfg.Prefetcher = pf
				cfg.EMCEnabled = emc
				cfg.InstrPerCore = o.serveInstr
				cfg.Seed = o.seed
				w.pool = append(w.pool, w.b.capped(cfg))
			}
		}
	}
	if o.serveCache >= len(w.pool) {
		return fmt.Errorf("serve: cache (%d) must be smaller than the key set (%d)", o.serveCache, len(w.pool))
	}
	rng := trace.NewPRNG(o.seed)
	for i := 0; i < o.serveJobs; i++ {
		if i >= serveRecent && rng.Float64() < serveRepeat {
			w.stream = append(w.stream, w.stream[i-1-rng.Intn(serveRecent)])
		} else {
			w.stream = append(w.stream, rng.Intn(len(w.pool)))
		}
	}
	// The reference runs record each configuration's hash (every service
	// result must match it), cycles and instructions.
	w.refCycles = make([]uint64, len(w.pool))
	w.refInstr = make([]uint64, len(w.pool))
	for i, cfg := range w.pool {
		res, skipped, setup, run, err := w.b.timedRun(cfg)
		w.refNew += setup
		w.refRun += run
		if !w.b.outcome(cfg, res, err) {
			continue
		}
		w.counts.add(res, skipped)
		w.refCycles[i] = res.Cycles
		for _, c := range res.Cores {
			w.refInstr[i] += c.Stats.Retired
		}
	}
	return nil
}

func (w *serve) iterate(traced bool) (sample, error) {
	var s sample
	o := w.b.o
	cfg := service.Config{
		Workers:    serveWorkers,
		CacheCap:   o.serveCache,
		SpanRetain: o.serveJobs + 1,
	}
	// Open is cheap (microseconds), so it is timed several times per round
	// and the last service serves the round.
	var svc *service.Service
	opens := make([]float64, o.serveOpens)
	for k := range opens {
		t0 := time.Now()
		sv, err := service.Open(cfg)
		opens[k] = time.Since(t0).Seconds()
		if err != nil {
			return s, fmt.Errorf("service.Open: %w", err)
		}
		if k < len(opens)-1 {
			sv.Close()
		} else {
			svc = sv
		}
	}
	s.setup = time.Duration(median(opens) * float64(time.Second))

	n := len(w.stream)
	var (
		next    atomic.Int64
		rejects atomic.Uint64
		wg      sync.WaitGroup
		lat     = make([]time.Duration, n)
		submit  = make([]time.Duration, n)
		results = make([]*sim.Result, n)
		errs    = make([]error, n)
		ids     = make([]string, n)
	)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	for c := 0; c < serveClients; c++ {
		client := fmt.Sprintf("client%d", c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t0 := time.Now()
				var j *service.Job
				var err error
				for {
					ts := time.Now()
					j, err = svc.Submit(client, w.pool[w.stream[i]])
					submit[i] = time.Since(ts)
					if !errors.Is(err, service.ErrQueueFull) {
						break
					}
					rejects.Add(1)
					time.Sleep(time.Millisecond)
				}
				if err == nil {
					ids[i] = j.ID()
					results[i], err = j.Wait(ctx)
				}
				lat[i] = time.Since(t0)
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	st := svc.Stats()
	spans := svc.Recorder().Spans()
	svc.Close()

	job := map[string]int{} // job id -> pool index
	for i := 0; i < n; i++ {
		w.b.outcome(w.pool[w.stream[i]], results[i], errs[i])
		if ids[i] != "" {
			job[ids[i]] = w.stream[i]
		}
	}
	s.jobs = lat
	for _, sp := range spans {
		idx, ok := job[sp.JobID]
		if !ok || sp.Cached || sp.AdmitAt == span.NoAdmit || sp.Outcome != string(service.StateDone) {
			continue
		}
		// The run phase is the worker's time on the job (sim.New and Run);
		// it spans 2 workers, so its sum can exceed the round's wall time.
		s.run += time.Duration(sp.Phases()[span.PhaseRunning])
		s.cycles += w.refCycles[idx]
		s.instr += w.refInstr[idx]
	}
	if traced {
		for _, d := range submit {
			w.submitUs = append(w.submitUs, float64(d)/float64(time.Microsecond))
		}
		for _, sp := range spans {
			ph := sp.Phases()
			switch {
			case sp.Cached:
				w.cacheHitUs = append(w.cacheHitUs, float64(ph[span.PhaseCacheHit])/float64(time.Microsecond))
			case sp.AdmitAt != span.NoAdmit:
				w.queuedMs = append(w.queuedMs, float64(ph[span.PhaseQueued])/float64(time.Millisecond))
				w.runningMs = append(w.runningMs, float64(ph[span.PhaseRunning])/float64(time.Millisecond))
			}
		}
		w.jobs += uint64(n)
		w.hits += st.CacheHits
		w.coalesced += st.Coalesced
		w.executed += st.Executed
		w.rejects += rejects.Load()
		w.retries += st.Retries
	}
	return s, nil
}

func (w *serve) layers(traced []sample) (layerSet, error) {
	ls := layerSet{counts: w.counts}
	gen, err := genPass(w.pool)
	if err != nil {
		return ls, err
	}
	ls.traceGenS = gen.Seconds()
	ls.simNewS = w.refNew.Seconds()
	ls.simRunS = w.refRun.Seconds()
	ls.submitUs = median(w.submitUs)
	ls.queuedMs = median(w.queuedMs)
	ls.runningMs = median(w.runningMs)
	ls.cacheHitUs = median(w.cacheHitUs)
	rounds := float64(len(traced))
	ls.hitFrac = ratio(float64(w.hits), float64(w.jobs))
	ls.coalescedFrac = ratio(float64(w.coalesced), float64(w.jobs))
	ls.executed = ratio(float64(w.executed), rounds)
	ls.queueFull = float64(w.rejects)
	ls.retries = float64(w.retries)
	fmt.Fprintf(w.b.log, "serve: %d traced rounds of %d jobs; %d spans executed, %d cache-hit spans; "+
		"the reference runs (one direct run per configuration) give sim.* spans and counts\n",
		len(traced), len(w.stream), len(w.runningMs), len(w.cacheHitUs))
	return ls, nil
}
