package main

// Phases shared by the two serving workloads, and the metric setters
// every workload uses.

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"corgi/internal/budget"
	"corgi/internal/core"
	"corgi/internal/registry"
	"corgi/internal/session"
)

const (
	refShare     = 0.5 // share of --seconds spent at the reference rate
	ladderStep   = 750 * time.Millisecond
	stepWindow   = 250 * time.Millisecond // ladder steps judge p99 per window
	refWindow    = time.Second            // the reference p99 is the median of per-second p99s
	restartCount = 60
	cpuChunks    = 6 // the closed loop runs in chunks; CPU per op is their median
)

// servingResult is the record of one serving run's measured phases.
type servingResult struct {
	// ref is the reference phase latencies are read from (in a traced run,
	// its traced windows pooled); refU pools a traced run's untraced
	// windows. refParts are the phases the reference ran as.
	ref, refU *phaseResult
	refParts  []*phaseResult
	// refWindow is the reference phase's interval on the recorder clock.
	refWindow [2]int64
	heapMB    float64 // live heap after the reference phase
	foldRT    rtSnap  // resources the answer checks used
	knee      float64
	passes    []float64
	steps     []*phaseResult
	all       []*phaseResult
	refBehind bool
	refLagP99 float64
	// cpu is the closed-loop phase and cpuTime the process CPU time it
	// used.
	cpu       *phaseResult
	cpuTime   time.Duration
	cpuChunks []float64 // CPU ms per op of each chunk of the closed loop
	cpuAlloc  uint64    // bytes the closed loop allocated
	cpuNote   string
}

// servingLoad is what measureServing drives: a workload's phase runner,
// its answer checks and its rate ladder.
type servingLoad struct {
	run func(name string, rate float64, dur, window time.Duration) *phaseResult
	// fold checks the answers recorded since its last call and releases
	// them. It runs after every phase, outside every measured interval,
	// so neither the checks nor the records are charged to the program.
	fold func()
	// heap returns the live heap in MB with the benchmark's own bulky
	// state (generated traffic, caches of the checks) released.
	heap                    func() float64
	refRate                 float64
	ladder                  ladder
	climbStart, climbStride int
	limitMs                 float64
}

// measureServing runs the closed-loop CPU phase (a fixed job list; it is
// not counted in --seconds), the reference phase and the ladder climb.
// The CPU cost per operation is read from the closed loop: with every lane
// busy the runtime has no idle processors to spend on opportunistic GC
// marking or on spinning for work, which at a light open-loop load made
// the same seed's CPU per operation vary by 10-15% between runs.
// In a traced run the reference phase alternates the recorder off and on
// every refWindow (the decorators stay installed; off, they cost one
// atomic load). ref pools the traced windows and refU the untraced ones;
// the difference of their p50s is the tracing overhead, and alternating
// spreads the machine's drift over both pools.
func measureServing(o *options, rec *recorder, w servingLoad) *servingResult {
	total := time.Duration(o.seconds * float64(time.Second))
	refDur := time.Duration(float64(total) * refShare)
	ms := &servingResult{}
	if rec != nil {
		rec.on.Store(false)
	}
	fold := func() {
		a := takeRT()
		w.fold()
		ms.foldRT.grow(a, takeRT())
	}
	// Collect the set-up and traffic-generation garbage first, so each
	// phase is charged only for its own collections.
	runtime.GC()
	var chunks []float64
	var cpuTime time.Duration
	var rtFirst, rtLast rtSnap
	for i := 0; i < cpuChunks; i++ {
		a := takeRT()
		p := w.run("cpu", 0, 0, refWindow)
		b := takeRT()
		fold()
		if i == 0 {
			ms.cpu, rtFirst = p, a
		} else {
			merge(ms.cpu, p)
		}
		rtLast = b
		cpuTime += b.cpu - a.cpu
		ms.cpuAlloc += b.alloc - a.alloc
		chunks = append(chunks, ratio(float64(b.cpu-a.cpu)/1e6, float64(p.ops)))
	}
	ms.cpuTime = cpuTime
	ms.cpuChunks = chunks
	ms.cpuNote = fmt.Sprintf("cpu phase: %d ops, %.3f s CPU, %d GC cycles, %.0f B allocated per op; CPU ms per op by chunk %v",
		ms.cpu.ops, ms.cpuTime.Seconds(), rtLast.gc-rtFirst.gc, ratio(float64(ms.cpuAlloc), float64(ms.cpu.ops)), roundAll(chunks))
	ms.all = append(ms.all, ms.cpu)
	runtime.GC()
	if o.trace {
		ms.refU = &phaseResult{name: "ref-off", rate: w.refRate}
		ms.ref = &phaseResult{name: "ref-on", rate: w.refRate}
		windows := int(refDur/refWindow) &^ 1
		if windows < 2 {
			windows = 2
		}
		ms.refWindow[0] = rec.now()
		for i := 0; i < windows; i++ {
			dst := ms.refU
			if i%2 == 1 {
				dst = ms.ref
			}
			rec.on.Store(dst == ms.ref)
			p := w.run(dst.name, w.refRate, refWindow, refWindow)
			fold()
			merge(dst, p)
			ms.refParts = append(ms.refParts, p)
		}
		ms.refWindow[1] = rec.now()
		rec.on.Store(true)
		ms.all = append(ms.all, ms.refU, ms.ref)
	} else {
		ms.ref = w.run("ref", w.refRate, refDur, refWindow)
		fold()
		ms.refParts = []*phaseResult{ms.ref}
		ms.all = append(ms.all, ms.ref)
	}
	for _, p := range ms.refParts {
		ms.refLagP99 = math.Max(ms.refLagP99, p.lagP99())
		ms.refBehind = ms.refBehind || p.behind(w.limitMs)
	}
	ms.heapMB = w.heap()
	ms.knee, ms.passes, ms.steps = w.ladder.climb(total-refDur, ladderStep, w.climbStart, w.climbStride, func(rate float64) *phaseResult {
		p := w.run(fmt.Sprintf("ladder@%.0f", rate), rate, ladderStep, stepWindow)
		fold()
		return p
	}, w.limitMs)
	ms.all = append(ms.all, ms.steps...)
	return ms
}

// setCommonServing sets the end-to-end metrics of a serving workload
// (sustained is the knee converted to the workload's request unit) and,
// in a traced run, the runtime.* layer metrics over every measured phase
// (less what the answer checks between phases used).
func setCommonServing(rep *report, ms *servingResult, setup, restart, restartCPU []float64, rt0, rt1 rtSnap, sustained float64) {
	rep.set("setup_s", median(setup), "s", len(setup))
	rep.set("restart_s", median(restart), "s", len(restart))
	rep.set("restart_cpu_ms", median(restartCPU), "ms", len(restartCPU))
	rep.set("sustained_rps", sustained, "1/s", len(ms.passes))
	setLatency(rep, ms.ref)
	rep.set("heap_mb", ms.heapMB, "MB", 1)
	rep.set("cpu_ms_per_op", median(ms.cpuChunks), "ms", ms.cpu.ops)
	rep.set("alloc_kb_per_op", ratio(float64(ms.cpuAlloc)/1024, float64(ms.cpu.ops)), "KB", ms.cpu.ops)
	rep.set("wire_bytes_per_op", ratio(float64(ms.cpu.wire), float64(ms.cpu.ops)), "B", ms.cpu.ops)
	rep.note("sustained passes (jobs/s): %v", roundAll(ms.passes))
	rep.note("%s", ms.cpuNote)
	if rep.traced {
		ops := 0
		for _, p := range ms.all {
			ops += p.sent
		}
		setRuntime(rep, rt0, rt1.less(ms.foldRT), ops)
	}
}

// failedRequests counts the failed requests of every phase.
func failedRequests(phases []*phaseResult) int {
	n := 0
	for _, p := range phases {
		n += p.failed
	}
	return n
}

// setForestLayer sets the proto.* forest-fetch layer metrics and the
// share of 200 responses that came back gzipped.
func setForestLayer(rep *report, ref []span, lanes []*httpLane) {
	var bytes, ok, notMod, gz, resp int
	for _, l := range lanes {
		bytes += l.forestBytes
		ok += l.forests200
		notMod += l.forests304
		gz += l.gzipped
		resp += l.responses200
	}
	rep.set("proto.gzip_share", ratio(float64(gz), float64(resp)), "ratio", resp)
	setPercentiles(rep, "proto.forest_self_us", durations(filterSpans(ref, spanHTTPForest, nil), 1e3), "us")
	rep.set("proto.forest_bytes", ratio(float64(bytes), float64(ok)), "B", ok)
	rep.set("proto.forest_304_share", ratio(float64(notMod), float64(ok+notMod)), "ratio", ok+notMod)
}

// setClusterLayer sets the cluster.* layer metrics.
func setClusterLayer(rep *report, share float64, fwdSelf []float64, fallbacks, handoffs uint64) {
	rep.set("cluster.forward_share", share, "ratio", len(fwdSelf))
	setPercentiles(rep, "cluster.forward_self_us", fwdSelf, "us")
	rep.set("cluster.http_fallbacks", float64(fallbacks), "count", 1)
	rep.set("cluster.handoffs_sent", float64(handoffs), "count", 1)
}

// setLatency sets the latency end-to-end metrics from the reference
// phase: p50 over every primary request, p99 as the median of the
// per-second p99s (one stalled second of a shared machine moves the
// pooled p99 by tens of percent, the median of seconds barely), and the
// forest-fetch p90 (the highest percentile with ten samples beyond it).
func setLatency(rep *report, ref *phaseResult) {
	prim := append([]float64(nil), ref.lat[classPrimary]...)
	forest := append([]float64(nil), ref.lat[classForest]...)
	var perSec []float64
	for _, w := range ref.windows {
		perSec = append(perSec, quantile(append([]float64(nil), w...), 0.99))
	}
	rep.set("p50_ms", quantile(prim, 0.5), "ms", len(prim))
	rep.set("p99_ms", ref.windowP99(), "ms", len(prim))
	rep.set("forest_p90_ms", quantile(forest, 0.9), "ms", len(forest))
	rep.set("forest_p99_ms", quantile(forest, 0.99), "ms", len(forest))
	rep.note("reference p99 pooled %.3f ms; per-second p99s %v", quantile(prim, 0.99), roundAll(perSec))
}

// setPercentiles sets name.p50 and name.p99 of xs.
func setPercentiles(rep *report, name string, xs []float64, unit string) {
	rep.set(name+".p50", quantile(append([]float64(nil), xs...), 0.5), unit, len(xs))
	rep.set(name+".p99", quantile(append([]float64(nil), xs...), 0.99), unit, len(xs))
}

// spansIn returns the spans that started inside the window.
func spansIn(spans []span, w [2]int64) []span {
	var out []span
	for _, s := range spans {
		if s.Start >= w[0] && s.Start <= w[1] {
			out = append(out, s)
		}
	}
	return out
}

func sessionTotals(regs ...*registry.Registry) session.Stats {
	var s session.Stats
	for _, r := range regs {
		s.Merge(r.AggregateSessionStats())
	}
	return s
}

func budgetTotals(regs ...*registry.Registry) budget.Stats {
	var s budget.Stats
	for _, r := range regs {
		s.Merge(r.AggregateBudgetStats())
	}
	return s
}

// setSessionBudget sets the session.* and budget.* layer metrics over the
// measured phases.
func setSessionBudget(rep *report, sa, sb session.Stats, ba, bb budget.Stats) {
	hits := float64(sb.Hits - sa.Hits)
	created := float64(sb.Created - sa.Created)
	lookups := hits + created
	rep.set("session.hit_ratio", ratio(hits, lookups), "ratio", int(lookups))
	rep.set("session.reanchor_ratio", ratio(float64(sb.Reanchors-sa.Reanchors), lookups), "ratio", int(lookups))
	rep.set("session.created", created, "count", 1)
	rep.set("session.evicted", float64(sb.Evicted-sa.Evicted), "count", 1)
	rep.set("budget.charges", float64(bb.Charges-ba.Charges), "count", 1)
	rep.set("budget.rejections", float64(bb.Rejections-ba.Rejections), "count", 1)
	rep.set("budget.eps_granted", bb.EpsGranted-ba.EpsGranted, "eps", 1)
	rep.set("budget.handoffs_imported", float64(bb.HandoffsImported-ba.HandoffsImported), "count", 1)
}

// setCore sets the core.* and lp.* layer metrics: the LP work of one
// bring-up (setup is the serving stack's engine counters when it became
// ready), the serving-time cache and alias counters, and forest
// generation spans by privacy level.
func setCore(rep *report, spans []span, setup, end core.EngineStats) {
	rep.set("core.solves", float64(setup.Solves), "count", 1)
	rep.set("core.cache_hit_ratio", ratio(float64(end.Hits), float64(end.Hits+end.Misses)), "ratio", int(end.Hits+end.Misses))
	rep.set("core.alias_builds", float64(end.AliasBuilds), "count", 1)
	rep.set("core.alias_hit_ratio", ratio(float64(end.AliasHits), float64(end.AliasHits+end.AliasBuilds)), "ratio", int(end.AliasHits+end.AliasBuilds))
	rep.set("core.cache_bytes", float64(end.CacheBytes), "B", 1)
	for _, level := range []int64{1, 2} {
		fs := filterSpans(spans, spanForest, func(s span) bool { return s.Key == level })
		rep.set(fmt.Sprintf("core.forest_ms.l%d", level), median(durations(fs, 1e6)), "ms", len(fs))
	}
	rep.set("lp.warm_attempts", float64(setup.WarmAttempts), "count", 1)
	rep.set("lp.warm_accept_ratio", ratio(float64(setup.WarmAccepts), float64(setup.WarmAttempts)), "ratio", int(setup.WarmAttempts))
}

// setStore sets the store.* layer metrics.
func setStore(rep *report, spans []span, storeBytes float64, hydrated uint64) {
	h := filterSpans(spans, spanHydrate, nil)
	f := filterSpans(spans, spanFlush, nil)
	rep.set("store.hydrate_ms", median(durations(h, 1e6)), "ms", len(h))
	rep.set("store.flush_ms", median(durations(f, 1e6)), "ms", len(f))
	rep.set("store.bytes", storeBytes, "B", 1)
	rep.set("core.store_hydrated", float64(hydrated), "count", 1)
}

// setGen sets the load generator's validity metrics: its own lateness and
// the sent/ok/failed counts of the reference phase and the ladder.
func setGen(rep *report, ms *servingResult) {
	lag := 0.0
	for _, p := range ms.all {
		lag = math.Max(lag, p.lagP99())
	}
	rep.set("gen.lag_p99_ms", lag, "ms", len(ms.all))
	var cpu, ref, lad phaseResult
	for _, p := range ms.all {
		dst := &lad
		switch p {
		case ms.cpu:
			dst = &cpu
		case ms.ref, ms.refU:
			dst = &ref
		}
		dst.sent += p.sent
		dst.ok += p.ok
		dst.failed += p.failed
	}
	for name, p := range map[string]*phaseResult{"cpu": &cpu, "ref": &ref, "ladder": &lad} {
		rep.set("gen."+name+".sent", float64(p.sent), "count", 1)
		rep.set("gen."+name+".ok", float64(p.ok), "count", 1)
		rep.set("gen."+name+".failed", float64(p.failed), "count", 1)
	}
}

// notePhases prints one line per phase run.
func notePhases(rep *report, phases []*phaseResult) {
	for _, p := range phases {
		rep.note("phase %-16s rate %8.1f/s sent %6d failed %3d p99 %7.3f ms (windows %7.3f) lag_p99 %6.3f ms backlog %d growth %6.3f ms",
			p.name, p.rate, p.sent, p.failed, quantile(append([]float64(nil), p.lat[classPrimary]...), 0.99), p.windowP99(),
			p.lagP99(), p.backlogEnd, p.backlogGrowth())
	}
}

// setOverhead sets the tracing overhead: the p50 of the reference windows
// with the recorder on minus the p50 of those with it off, in µs and as a
// share.
func setOverhead(rep *report, ms *servingResult, spans int) {
	on := quantile(append([]float64(nil), ms.ref.lat[classPrimary]...), 0.5)
	off := quantile(append([]float64(nil), ms.refU.lat[classPrimary]...), 0.5)
	rep.set("trace.overhead_us", (on-off)*1e3, "us", len(ms.ref.lat[classPrimary]))
	rep.set("trace.overhead_ratio", ratio(on-off, off), "ratio", len(ms.ref.lat[classPrimary]))
	rep.set("trace.spans", float64(spans), "count", 1)
}

// roundAll rounds to three decimals for printing.
func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}

// spanPath is where a traced run writes its spans.
func (o *options) spanPath() string {
	return filepath.Join(filepath.Dir(o.workDir), fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
}
