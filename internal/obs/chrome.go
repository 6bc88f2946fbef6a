package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// ChromeExport merges the retained trace records of one or more runs into a
// single Chrome trace_event JSON file (the "JSON Array Format" with a
// traceEvents wrapper), viewable in Perfetto / chrome://tracing.
//
// Mapping: one process (pid) per run, one thread (tid) per requester
// (core i, or 1000+mc for EMC-issued requests), and one async nestable
// event per request: a "b"/"e" pair spanning issue->last stage with an
// instant "n" step at every intermediate stage. Async events keep the many
// overlapping misses of one core from being forced into a nesting
// hierarchy. Cycles are written as microseconds (1 cycle = 1us).
type ChromeExport struct {
	mu   sync.Mutex
	runs []chromeRun
}

type chromeRun struct {
	label   string
	records []*Record
}

// Add appends one finished run's retained records under a process label.
// Safe for concurrent use (figure suites finish runs on many goroutines).
func (e *ChromeExport) Add(label string, t *Tracer) {
	if t == nil || len(t.Records()) == 0 {
		return
	}
	e.mu.Lock()
	e.runs = append(e.runs, chromeRun{label: label, records: t.Records()})
	e.mu.Unlock()
}

// Runs returns the number of runs added.
func (e *ChromeExport) Runs() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.runs)
}

// WriteJSON streams the export as trace-event JSON.
func (e *ChromeExport) WriteJSON(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	cw, err := NewChromeWriter(w)
	if err != nil {
		return err
	}
	for pid, run := range e.runs {
		if err := cw.Meta("process_name", pid, 0, run.label); err != nil {
			return err
		}
		threads := map[int]string{}
		for _, r := range run.records {
			if len(r.Events) == 0 {
				continue
			}
			tid := r.Core
			if r.Source == SrcEMC {
				tid = 1000 + r.Core
			}
			if _, ok := threads[tid]; !ok {
				name := fmt.Sprintf("core %d", r.Core)
				if r.Source == SrcEMC {
					name = fmt.Sprintf("emc (core %d chains)", r.Core)
				}
				threads[tid] = name
				if err := cw.Meta("thread_name", pid, tid, name); err != nil {
					return err
				}
			}
			id := fmt.Sprintf("%#x", r.ID)
			name := r.Source.String() + " miss"
			if r.Dependent {
				name = r.Source.String() + " dependent miss"
			}
			// Stamps arrive in stamp order, not time order: dram_issue is
			// backdated to the DRAM request's issue cycle, which precedes
			// this waiter's own arrival when it merged onto an in-flight
			// line. The span's timeline must be monotonic, so emit the
			// stages sorted by cycle (every stage becomes a step).
			evs := append([]Event(nil), r.Events...)
			sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
			begin := ChromeEvent{Name: name, Cat: "miss", Ph: "b", Ts: evs[0].At,
				Pid: pid, Tid: tid, ID: id,
				Args: map[string]any{"line": fmt.Sprintf("%#x", r.Line), "pc": fmt.Sprintf("%#x", r.PC)}}
			if err := cw.Event(begin); err != nil {
				return err
			}
			for _, ev := range evs {
				if err := cw.Event(ChromeEvent{Name: ev.Stage.String(), Cat: "miss", Ph: "n",
					Ts: ev.At, Pid: pid, Tid: tid, ID: id}); err != nil {
					return err
				}
			}
			if err := cw.Event(ChromeEvent{Name: name, Cat: "miss", Ph: "e", Ts: evs[len(evs)-1].At,
				Pid: pid, Tid: tid, ID: id}); err != nil {
				return err
			}
		}
	}
	return cw.Close()
}

// ChromeWriter streams one Chrome trace_event document in the "JSON Object
// Format": a {"displayTimeUnit":"ms","traceEvents":[...]} envelope with one
// event per line. ChromeExport and the service's span export
// (span.WriteChrome) both write through it, so cmd/tracecheck validates
// both and their traceEvents arrays merge cleanly.
type ChromeWriter struct {
	bw    *bufio.Writer
	first bool
}

// NewChromeWriter writes the envelope's opening to w. Close writes the rest.
func NewChromeWriter(w io.Writer) (*ChromeWriter, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return nil, err
	}
	return &ChromeWriter{bw: bw, first: true}, nil
}

// ChromeEvent is one async nestable event: "b" opens the span named by ID,
// "n" is an instant step inside it, "e" closes it. Ts is the timestamp in
// microseconds, encoded as the caller's type: an integer cycle count for
// simulator traces (1 cycle = 1us), a float for wall-clock spans.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   any            `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeMeta is a metadata ("M") event naming a process or thread.
type chromeMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// Meta writes a metadata event: kind is "process_name" or "thread_name",
// label the name the viewer shows for pid (and tid).
func (cw *ChromeWriter) Meta(kind string, pid, tid int, label string) error {
	return cw.emit(chromeMeta{Name: kind, Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": label}})
}

// Event writes one async event.
func (cw *ChromeWriter) Event(ev ChromeEvent) error { return cw.emit(ev) }

func (cw *ChromeWriter) emit(v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if !cw.first {
		if err := cw.bw.WriteByte(','); err != nil {
			return err
		}
	}
	cw.first = false
	cw.bw.WriteByte('\n')
	_, err = cw.bw.Write(raw)
	return err
}

// Close ends the envelope and flushes; it does not close the underlying
// writer.
func (cw *ChromeWriter) Close() error {
	if _, err := cw.bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return cw.bw.Flush()
}

// WriteFile writes the export to path.
func (e *ChromeExport) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := e.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
