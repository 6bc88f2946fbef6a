package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/report"
	"repro/internal/sim"
)

// JobRequest is the JSON submit body: the sweep-relevant subset of
// sim.Config. Omitted fields take the paper's Table-1 defaults.
type JobRequest struct {
	// Client groups submissions for queue fairness (defaults to "default").
	Client string `json:"client"`

	Benchmarks   []string `json:"benchmarks"`
	InstrPerCore uint64   `json:"instrPerCore"`
	Seed         uint64   `json:"seed"`

	Prefetcher         string `json:"prefetcher"`
	EMC                bool   `json:"emc"`
	Runahead           bool   `json:"runahead"`
	UseBranchPredictor bool   `json:"useBranchPredictor"`
	MCs                int    `json:"mcs"`
	IdealDependentHits bool   `json:"idealDependentHits"`
}

// Config materializes the request as a sim.Config (validated by sim.New at
// run time; the cheap shape checks happen here so submit can 400 early).
func (r *JobRequest) Config() (sim.Config, error) {
	if len(r.Benchmarks) == 0 {
		return sim.Config{}, fmt.Errorf("benchmarks required")
	}
	cfg := sim.Default(r.Benchmarks)
	if r.InstrPerCore > 0 {
		cfg.InstrPerCore = r.InstrPerCore
	}
	if r.Seed > 0 {
		cfg.Seed = r.Seed
	}
	if r.Prefetcher != "" {
		cfg.Prefetcher = sim.PrefetcherKind(r.Prefetcher)
	}
	cfg.EMCEnabled = r.EMC
	cfg.RunaheadEnabled = r.Runahead
	cfg.UseBranchPredictor = r.UseBranchPredictor
	if r.MCs > 0 {
		cfg.MCs = r.MCs
	}
	cfg.IdealDependentHits = r.IdealDependentHits
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, err
	}
	return cfg, nil
}

// NewHandler returns the service's HTTP API:
//
//	POST /api/v1/jobs                submit (JobRequest JSON) -> Status
//	GET  /api/v1/jobs                list job statuses
//	GET  /api/v1/jobs/{id}           one job's Status
//	GET  /api/v1/jobs/{id}/result    finished job's report JSON
//	GET  /api/v1/jobs/{id}/progress  NDJSON Status stream until terminal
//	POST /api/v1/jobs/{id}/cancel    request cancellation
//	GET  /api/v1/stats               service counters (incl. per-shard)
//	GET  /api/v1/stats/stream        NDJSON StatsFrame stream (emcctl top)
//	GET  /api/v1/trace               Chrome trace_event JSON of finished spans
//	GET  /metrics                    Prometheus text (reg, when non-nil)
//	GET  /healthz                    liveness
func NewHandler(s *Service, reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /api/v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /api/v1/stats/stream", s.handleStatsStream)
	mux.HandleFunc("GET /api/v1/trace", s.handleTrace)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if reg != nil {
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := reg.WritePrometheus(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	return mux
}

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone is the only failure here
}

// MaxRequestBody caps every HTTP request body the service and the fabric
// handler read: job and forwarded-job JSON, join announcements, and EMCR
// frames. The fabric's HTTP transport caps every peer response body at the
// same size. The largest EMCR frame a Fig. 12 configuration produces is ~6 KB,
// so 1 MiB leaves two orders of magnitude of headroom while keeping an
// unauthenticated client from making a node buffer an unbounded body.
const MaxRequestBody = 1 << 20

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBody)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad request body: " + err.Error()})
		return
	}
	cfg, err := req.Config()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	j, err := s.Submit(req.Client, cfg)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error()})
		return
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	st := j.Status()
	code := http.StatusAccepted
	if st.State.Terminal() {
		code = http.StatusOK // cache hit: the job is already done
	}
	writeJSON(w, code, st)
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Service) jobFor(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: ErrNotFound.Error()})
		return nil, false
	}
	return j, true
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFor(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	res, err, terminal := j.Result()
	switch {
	case !terminal:
		writeJSON(w, http.StatusConflict, apiError{Error: "job not finished: " + string(j.Status().State)})
	case errors.Is(err, sim.ErrCancelled):
		if res == nil {
			writeJSON(w, http.StatusGone, apiError{Error: "job cancelled before producing results"})
			return
		}
		out := report.New(res)
		out.Cancelled = true
		writeJSON(w, http.StatusOK, out)
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
	default:
		writeJSON(w, http.StatusOK, report.New(res))
	}
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	j.requestCancel()
	writeJSON(w, http.StatusAccepted, j.Status())
}

// StatsFrame is one sample of the live-dashboard NDJSON stream: the service
// counters (with per-shard breakdown) plus every non-terminal job's Status.
// emcctl top renders these.
type StatsFrame struct {
	Time   time.Time `json:"time"`
	Stats  Stats     `json:"stats"`
	Active []Status  `json:"active,omitempty"`
}

// activeStatuses snapshots every non-terminal job's Status.
func (s *Service) activeStatuses() []Status {
	s.mu.Lock()
	jobs := append([]*Job(nil), s.order...)
	s.mu.Unlock()
	var out []Status
	for _, j := range jobs {
		if st := j.Status(); !st.State.Terminal() {
			out = append(out, st)
		}
	}
	return out
}

// handleStatsStream streams StatsFrame NDJSON until the client disconnects.
// ?poll=MS sets the sampling period (default 1000 ms); ?frames=N stops after
// N frames (smoke tests, emcctl top -frames).
func (s *Service) handleStatsStream(w http.ResponseWriter, r *http.Request) {
	poll := time.Second
	if v := r.URL.Query().Get("poll"); v != "" {
		if ms, err := strconv.Atoi(v); err == nil && ms > 0 {
			poll = time.Duration(ms) * time.Millisecond
		}
	}
	frames := 0 // 0 = unbounded
	if v := r.URL.Query().Get("frames"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			frames = n
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	t := time.NewTicker(poll)
	defer t.Stop()
	for sent := 0; ; {
		frame := StatsFrame{Time: time.Now(), Stats: s.Stats(), Active: s.activeStatuses()}
		if enc.Encode(frame) != nil {
			return // client gone
		}
		if flusher != nil {
			flusher.Flush()
		}
		sent++
		if frames > 0 && sent >= frames {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-t.C:
		}
	}
}

// handleTrace exports the retained finished spans as Chrome trace_event
// JSON (load in chrome://tracing or Perfetto; merge with a sim trace —
// service spans sit at pids ≥ span.ChromePidBase). 409 until a job finishes:
// an empty traceEvents array fails tracecheck, so we refuse to emit one.
func (s *Service) handleTrace(w http.ResponseWriter, _ *http.Request) {
	spans := s.rec.Spans()
	if len(spans) == 0 {
		writeJSON(w, http.StatusConflict, apiError{Error: "no finished spans yet"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="service-trace.json"`)
	if err := span.WriteChrome(w, "emcserve", spans); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleProgress streams the job's Status as NDJSON (one object per line,
// flushed) until the job is terminal or the client disconnects. ?poll=MS
// overrides the sampling period (default 500 ms). The per-job progress
// values ride on the simulator's interval-counter machinery via RunHandle.
func (s *Service) handleProgress(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	poll := 500 * time.Millisecond
	if v := r.URL.Query().Get("poll"); v != "" {
		if ms, err := strconv.Atoi(v); err == nil && ms > 0 {
			poll = time.Duration(ms) * time.Millisecond
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st := j.Status()
		if enc.Encode(st) != nil {
			return // client gone
		}
		if flusher != nil {
			flusher.Flush()
		}
		if st.State.Terminal() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-j.Done():
			// Loop once more to emit the terminal snapshot.
		case <-t.C:
		}
	}
}
