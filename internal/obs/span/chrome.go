package span

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
)

// ChromePidBase is the process id the service timeline exports under.
// Simulator traces (internal/obs.ChromeExport) number their processes from
// 0, one per run; starting the service pid here keeps a merged file — one
// timeline showing service queueing above simulated cycles — collision-free.
const ChromePidBase = 10000

// WriteChrome exports finished job spans as Chrome trace_event JSON through
// the simulator trace export's writer (obs.ChromeWriter), so cmd/tracecheck
// validates both and the traceEvents arrays merge cleanly.
//
// Mapping: one process for the service (label), one thread per worker
// shard, and one async nestable event per job: "b" at submit, an instant
// "n" step at each recorded phase boundary, "e" at finish. Timestamps are
// microseconds on the recorder's monotonic base. Running jobs are not
// exported — an unterminated async span would fail validation; snapshot
// again after the sweep drains.
func WriteChrome(w io.Writer, label string, spans []Span) error {
	cw, err := obs.NewChromeWriter(w)
	if err != nil {
		return err
	}
	pid := ChromePidBase
	if err := cw.Meta("process_name", pid, 0, label); err != nil {
		return err
	}
	shards := map[int]bool{}
	for _, sp := range spans {
		if !shards[sp.Shard] {
			shards[sp.Shard] = true
		}
	}
	ordered := make([]int, 0, len(shards))
	for s := range shards {
		ordered = append(ordered, s)
	}
	sort.Ints(ordered)
	for _, s := range ordered {
		if err := cw.Meta("thread_name", pid, s, fmt.Sprintf("shard %d", s)); err != nil {
			return err
		}
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, sp := range spans {
		name := "job " + sp.Outcome
		if sp.Cached {
			name = "job cache-hit"
		}
		args := map[string]any{"client": sp.Client, "attempts": sp.Attempts}
		if sp.Hung {
			args["hung"] = true
		}
		if sp.Coalesced > 0 {
			args["coalesced"] = sp.Coalesced
		}
		if err := cw.Event(obs.ChromeEvent{Name: name, Cat: "job", Ph: "b", Ts: us(sp.SubmitAt),
			Pid: pid, Tid: sp.Shard, ID: sp.JobID, Args: args}); err != nil {
			return err
		}
		if sp.AdmitAt != NoAdmit {
			if err := cw.Event(obs.ChromeEvent{Name: "admitted", Cat: "job", Ph: "n", Ts: us(sp.AdmitAt),
				Pid: pid, Tid: sp.Shard, ID: sp.JobID}); err != nil {
				return err
			}
		}
		if err := cw.Event(obs.ChromeEvent{Name: name, Cat: "job", Ph: "e", Ts: us(sp.FinishAt),
			Pid: pid, Tid: sp.Shard, ID: sp.JobID}); err != nil {
			return err
		}
	}
	return cw.Close()
}
