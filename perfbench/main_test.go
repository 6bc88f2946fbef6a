package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// tinyOptions shrinks every budget so one invocation of any workload runs
// in about a second; each workload still completes at least one repetition.
func tinyOptions(workload string, traced bool) options {
	o := defaultOptions()
	o.workload = workload
	o.traced = traced
	o.seconds = 0.001
	o.fig12Instr = 300
	o.streamInstr = 2000
	o.serveInstr = 300
	o.serveJobs = 60
	o.servePool = 12
	o.serveCache = 4
	o.serveOpens = 3
	return o
}

// runTiny runs the benchmark in-process and decodes the result line.
func runTiny(t *testing.T, o options) (result, string) {
	t.Helper()
	var out bytes.Buffer
	if err := runBench(o, &out); err != nil {
		t.Fatalf("%s: %v\n%s", o.workload, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", o.workload, err, out.String())
	}
	return r, out.String()
}

// benchmarkSpec reads the metric names BENCHMARK.json promises.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func metricNames(r result) []string {
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestSmokeEveryWorkload runs each workload at a tiny budget, untraced and
// traced, and checks the result object: every output check passed, no
// operation failed, and the metrics are exactly the ones BENCHMARK.json
// names for that mode.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layer := benchmarkSpec(t)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			r, out := runTiny(t, tinyOptions(w, traced))
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d\n%s", w, traced, r.Correct, r.Attempted, r.Failed, out)
			}
			want := e2e
			if traced {
				want = layer
			}
			if got := metricNames(r); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s traced=%t: metrics\n got %v\nwant %v", w, traced, got, want)
			}
			if traced {
				sum := 0.0
				for _, l := range layers {
					sum += r.Metrics[l+".host_pct"].Value
				}
				if n := r.Metrics["bench.profile_samples"].Value; n > 0 && (sum < 99.999 || sum > 100.001) {
					t.Errorf("%s: host shares sum to %g over %g samples", w, sum, n)
				}
			} else {
				for _, n := range e2e {
					if r.Metrics[n].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", w, n, r.Metrics[n].Value)
					}
				}
			}
		}
	}
}

// TestCycleCapCountsFailure gives a normal configuration a cycle cap it
// cannot finish within: every run must fail with the cap's error, be
// counted in failed, and leave the benchmark to report instead of crash.
func TestCycleCapCountsFailure(t *testing.T) {
	o := tinyOptions("stream-wb", false)
	o.capPerInstr, o.capSlack = 0, 500
	r, out := runTiny(t, o)
	if r.Attempted == 0 || r.Failed != r.Attempted {
		t.Fatalf("attempted=%d failed=%d, want every run failed\n%s", r.Attempted, r.Failed, out)
	}
	if !r.Correct {
		t.Errorf("a capped run is a failed operation, not a wrong output\n%s", out)
	}
	if !strings.Contains(out, "FAIL stream-wb bench=bwaves,lbm,milc,omnetpp pf=stream emc=false n=2000 seed=1: sim: exceeded MaxCycles=500") {
		t.Errorf("failure line does not name workload, config and seed:\n%s", out)
	}

	// The same cap inside the fig12 sweep fails each run; the sweep goes on.
	o = tinyOptions("fig12", false)
	o.capPerInstr, o.capSlack = 0, 500
	r, out = runTiny(t, o)
	if r.Attempted != 80 || r.Failed != 80 {
		t.Errorf("fig12: attempted=%d failed=%d, want 80 and 80\n%s", r.Attempted, r.Failed, out)
	}
}

func TestBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"--trace", "2"},
		{"--nope"},
	} {
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	if code := run([]string{"--workload", "nope", "--seconds", "0"}, &out, &errOut); code != 1 {
		t.Errorf("unknown workload: exit %d, want 1", code)
	}
	if out.Len() != 0 {
		t.Errorf("no result may be printed on a usage error, got %q", out.String())
	}
}
