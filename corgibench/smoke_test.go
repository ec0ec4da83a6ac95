package main

import (
	"testing"
)

// TestSmoke runs every workload briefly, untraced and traced, with one
// set-up each, and fails unless every run passes its correctness gates and
// prints every metric BENCHMARK.json names for its mode, with its unit.
//
//	cd corgibench && go test -run TestSmoke -timeout 10m .
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke brings up the full serving stack; skipped with -short")
	}
	spec, err := loadBenchSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	o := &options{seed: 1, workDir: t.TempDir()}
	if err := smoke(o, spec); err != nil {
		t.Fatal(err)
	}
}

// TestLadderRates pins the ladder arithmetic the sustained rate is read
// from.
func TestLadderRates(t *testing.T) {
	l := ladder{base: 100, step: 1.05, rungs: 10}
	if got := l.rate(0); got != 100 {
		t.Fatalf("rung 0 = %v, want 100", got)
	}
	if got, want := l.rate(2), 100*1.05*1.05; got != want {
		t.Fatalf("rung 2 = %v, want %v", got, want)
	}
}

// TestSelfTimes checks that a parent's self time subtracts the union of
// its children, counting overlapping children once.
func TestSelfTimes(t *testing.T) {
	parent := []span{{Name: "p", Key: 1, Start: 0, End: 100}}
	kids := indexSpans([]span{
		{Name: "c", Key: 10, Start: 10, End: 40},
		{Name: "c", Key: 11, Start: 30, End: 60},
		{Name: "c", Key: 12, Start: 200, End: 210}, // outside the parent
	}, "c", nil)
	got := selfTimes(parent, kids, func(span) []int64 { return []int64{10, 11, 12} })
	if len(got) != 1 || got[0] != 0.05 { // (100 - 50) ns in µs
		t.Fatalf("self times %v, want [0.05]", got)
	}
}

// TestMedianQuantile pins the two order statistics the metrics use.
func TestMedianQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := quantile(append([]float64(nil), xs...), 0.99); got != 4 {
		t.Fatalf("p99 = %v, want 4", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}
