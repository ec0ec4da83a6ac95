// Command corgibench is the corgi-bench/1 benchmark: one command that
// drives the real serving stack in process under three workloads and
// prints the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run) named in BENCHMARK.json.
//
//	bash corgibench/run.sh --workload http-cluster --seed 1 --seconds 15 --trace 0
//	bash corgibench/run.sh --smoke
//
// Workloads (see ledger.json for the rationale and the layer map):
//
//   - http-cluster: open-loop HTTP/JSON reports and forest fetches against
//     two clustered nodes behind a ring-unaware client;
//   - mobility-batch: open-loop corgi-stream REPORTS frames replaying
//     Gowalla trajectories against one node;
//   - cold-start: fresh 4-region bring-up against an empty store, then
//     store-hydrated restarts.
//
// Every run checks the outputs (correctness gates) and exits non-zero when a
// gate fails. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// options are the command-line inputs every workload receives.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	workDir  string
	// setups is how many times a run brings its stack up (set-up time is
	// their median); smoke runs use one.
	setups int
}

// setupRuns is each workload's number of bring-ups per run: a cold-start
// bring-up takes about 9 s, the others under 2 s.
var setupRuns = map[string]int{
	"http-cluster":   5,
	"mobility-batch": 5,
	"cold-start":     3,
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(*options, *report) error{
	"http-cluster":   runHTTPCluster,
	"mobility-batch": runMobilityBatch,
	"cold-start":     runColdStart,
}

func main() {
	var (
		o     options
		trace int
	)
	flag.StringVar(&o.workload, "workload", "", "workload: http-cluster, mobility-batch or cold-start")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (inputs are a pure function of it)")
	flag.Float64Var(&o.seconds, "seconds", 15, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics; 0 = untraced end-to-end run")
	flag.BoolVar(&o.smoke, "smoke", false, "run every workload briefly, traced and untraced, and check every metric is printed")
	flag.StringVar(&o.workDir, "workdir", filepath.Join(".bench_build", "runs"), "scratch directory for stores and span dumps")
	flag.Parse()
	o.trace = trace == 1
	o.setups = setupRuns[o.workload]

	spec, err := loadBenchSpec("BENCHMARK.json")
	if err != nil {
		fatalf("%v", err)
	}
	if o.smoke {
		if err := smoke(&o, spec); err != nil {
			fatalf("smoke: %v", err)
		}
		fmt.Println("smoke: ok")
		return
	}
	rep, err := runOne(&o, spec)
	if rep != nil {
		rep.print(os.Stdout, spec.names(o.trace))
	}
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
}

// runOne runs a single workload and validates its metric set against the
// benchmark spec. A returned report with a non-nil error is printed with
// correct=false.
func runOne(o *options, spec *benchSpec) (*report, error) {
	run, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	dir := filepath.Join(o.workDir, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ro := *o
	ro.workDir = dir
	rep := newReport(o.trace)
	err := run(&ro, rep)
	rep.set("fail_ratio", ratio(float64(rep.failed), float64(rep.attempted)), "ratio", rep.attempted)
	if err == nil {
		err = spec.check(rep, o.trace)
	}
	if err != nil {
		rep.correct = false
		rep.gateErrs = append(rep.gateErrs, err.Error())
		return rep, err
	}
	if len(rep.gateErrs) > 0 {
		rep.correct = false
		return rep, fmt.Errorf("correctness gates failed: %s", strings.Join(rep.gateErrs, "; "))
	}
	return rep, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// smoke runs every workload briefly in both modes and fails unless each
// run passes its gates and prints every metric the spec names.
func smoke(o *options, spec *benchSpec) error {
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			so := *o
			so.workload, so.trace, so.seconds, so.setups = w, traced, 2, 1
			start := time.Now()
			if _, err := runOne(&so, spec); err != nil {
				return fmt.Errorf("%s trace=%v: %w", w, traced, err)
			}
			fmt.Fprintf(os.Stderr, "smoke: %s trace=%v ok in %.1fs (%d metrics)\n",
				w, traced, time.Since(start).Seconds(), len(spec.names(traced)))
		}
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "corgibench: "+format+"\n", args...)
	os.Exit(1)
}

// benchSpec is the part of BENCHMARK.json the command checks its output
// against: every end-to-end metric in an untraced run, every per-layer
// metric in a traced run, each with its declared unit.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec (run from the repository root): %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, errors.New("benchmark spec lists no metrics")
	}
	return &s, nil
}

func (s *benchSpec) metrics(traced bool) []specMetric {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

func (s *benchSpec) names(traced bool) []string {
	ms := s.metrics(traced)
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

// check fails unless the report set every metric the spec names for this
// mode, with the declared unit.
func (s *benchSpec) check(rep *report, traced bool) error {
	var missing []string
	for _, m := range s.metrics(traced) {
		v, ok := rep.vals[m.Name]
		switch {
		case !ok:
			missing = append(missing, m.Name)
		case v.Unit != m.Unit:
			missing = append(missing, fmt.Sprintf("%s (unit %q, spec says %q)", m.Name, v.Unit, m.Unit))
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not printed: %s", strings.Join(missing, ", "))
	}
	return nil
}
