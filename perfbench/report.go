package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metric is one named, unit-carrying number the benchmark reports.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// report collects metrics in the order they are added.
type report struct {
	metrics []metric
}

func (r *report) add(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// print writes one human-readable line per metric, then the result object
// as the last line of w.
func (r *report) print(w io.Writer, correct bool, attempted, failed int) error {
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-34s %16.6f %s\n", m.Name, m.Value, m.Unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
