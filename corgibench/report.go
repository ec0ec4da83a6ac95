package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricVal is one printed metric: its value, unit and the number of
// samples behind it (1 for a counter or a single measurement).
type metricVal struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// report accumulates one run's metrics, request counts and gate results.
type report struct {
	traced    bool
	vals      map[string]metricVal
	order     []string
	attempted int
	failed    int
	correct   bool
	gateErrs  []string
	notes     []string
}

func newReport(traced bool) *report {
	return &report{traced: traced, vals: map[string]metricVal{}, correct: true}
}

// set records a metric. Non-finite values are stored as 0 so the JSON
// line stays valid; the gates, not the metric, catch broken runs.
func (r *report) set(name string, value float64, unit string, samples int) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	if _, ok := r.vals[name]; !ok {
		r.order = append(r.order, name)
	}
	r.vals[name] = metricVal{Value: value, Unit: unit, samples: samples}
}

// gate records a correctness gate: a false condition fails the run.
func (r *report) gate(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	status := "pass"
	if !ok {
		status = "FAIL"
		r.gateErrs = append(r.gateErrs, msg)
	}
	r.notes = append(r.notes, fmt.Sprintf("gate %s: %s", status, msg))
}

// note records a free-form line printed before the metrics.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count adds a phase's requests to the run's attempted/failed totals.
func (r *report) count(p *phaseResult) {
	r.attempted += p.sent
	r.failed += p.failed
}

// print writes the human-readable lines (gates, every metric with unit and
// sample count) and then the one-line JSON result restricted to names.
func (r *report) print(w io.Writer, names []string) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	keys := append([]string(nil), r.order...)
	sort.Strings(keys)
	for _, k := range keys {
		v := r.vals[k]
		fmt.Fprintf(w, "metric %-34s %14.6g %-8s n=%d\n", k, v.Value, v.Unit, v.samples)
	}
	if len(r.gateErrs) > 0 {
		fmt.Fprintf(w, "FAILED gates: %s\n", strings.Join(r.gateErrs, "; "))
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{r.correct && len(r.gateErrs) == 0, r.attempted, r.failed, map[string]metricVal{}}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Correct = false
	}
	for _, n := range names {
		if v, ok := r.vals[n]; ok {
			out.Metrics[n] = v
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(w, "{\"correct\":false,\"attempted\":1,\"failed\":1,\"metrics\":{}}\n")
		return
	}
	fmt.Fprintln(w, string(b))
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
// It returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is the middle value of xs (the mean of the two middle values for
// an even count), 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
