package main

// Workload cold-start: an operator brings up four builtin metro regions
// (default specs, height 2) with warmup δ≤2 against an empty forest store,
// then restarts the node over the populated store again and again. Each
// restart must run no LP solve and serve every warmup forest under the
// same v2 ETag as the fresh bring-up; the first fetch of every forest
// after a restart is the request stream this workload times.

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"corgi/internal/proto"
	"corgi/internal/registry"
)

var coldRegions = []string{"sf", "nyc", "la", "chicago"}

const coldMaxDelta = 2

// forestKey names one warmup forest.
type forestKey struct {
	region       string
	level, delta int
}

// swapHandler serves whichever registry is current, so one listener
// outlives the restarts behind it.
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

func (s *swapHandler) serve(reg *registry.Registry) error {
	mh, err := proto.NewMultiHandler(reg)
	if err != nil {
		return err
	}
	s.h.Store(http.Handler(mh.Mux()))
	return nil
}

func runColdStart(o *options, rep *report) error {
	ctx := context.Background()
	specs, err := builtinSpecs(coldRegions...)
	if err != nil {
		return err
	}
	cfg := stackCfg{specs: specs, warmDelta: coldMaxDelta, nodes: 1}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
		rec.on.Store(true)
	}
	st, setupTimes, err := timedSetups(ctx, cfg, o.workDir, o.setups, rec)
	if err != nil {
		return err
	}
	defer st.close()
	setupEngine := engineStats(st.regs()...)
	st.flush(rec)
	setupSpans := len(rec.snapshot())

	var keys []forestKey
	for _, r := range coldRegions {
		spec, _ := st.nodes[0].reg.Spec(r) // defaults applied
		for level := 1; level <= spec.Height; level++ {
			for d := 0; d <= coldMaxDelta; d++ {
				keys = append(keys, forestKey{r, level, d})
			}
		}
	}
	rng := rand.New(rand.NewSource(o.seed))

	sw := &swapHandler{}
	if err := sw.serve(st.nodes[0].reg); err != nil {
		return err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: sw, ReadHeaderTimeout: 10 * time.Second}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = hs.Serve(lis) // returns ErrServerClosed on close
	}()
	defer func() { hs.Close(); wg.Wait() }()
	lane := newHTTPLane("http://" + lis.Addr().String())
	defer lane.client.CloseIdleConnections()

	// Reference ETags from the fresh bring-up.
	fresh := map[forestKey]string{}
	for _, k := range keys {
		status, etag, err := lane.getForest(k.region, k.level, k.delta, "")
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("fresh forest %v: status %d: %v", k, status, err)
		}
		fresh[k] = etag
	}

	// The measured loop: restart, then fetch every forest once in a
	// seeded order. Traced runs alternate the recorder off and on per
	// restart to measure the tracing overhead.
	fetches := &phaseResult{name: "ref", windows: [][]float64{}}
	var (
		restartTimes, cycleTimes []float64
		latOn, latOff            []float64
		restartCPU               []float64
		solves, hydrated         uint64
		etagMismatch             int
		last                     *registry.Registry
	)
	runtime.GC() // charge the loop only for its own collections
	wire0 := lane.wire
	rt0 := takeRT()
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i < restartCount || time.Now().Before(deadline); i++ {
		on := o.trace && i%2 == 1
		if rec != nil {
			rec.on.Store(on)
		}
		cpu0 := takeRT().cpu
		cycle := time.Now()
		reg, _, err := openRegistry(ctx, cfg, st.nodes[0].storeDir, 0, nil)
		if err != nil {
			return err
		}
		restartTimes = append(restartTimes, time.Since(cycle).Seconds())
		cpu1 := takeRT().cpu
		restartCPU = append(restartCPU, float64(cpu1-cpu0)/1e6)
		es := reg.AggregateStats()
		solves += es.Solves
		hydrated = es.StoreHydrated
		if err := sw.serve(reg); err != nil {
			return err
		}
		last = reg
		window := []float64{}
		for _, j := range rng.Perm(len(keys)) {
			k := keys[j]
			start := time.Now()
			var status int
			var etag string
			err := rec.record(spanHTTPForest, 0, int64(j), func() error {
				var err error
				status, etag, err = lane.getForest(k.region, k.level, k.delta, "")
				return err
			})
			ms := float64(time.Since(start)) / 1e6
			fetches.sent++
			fetches.sentByClass[classPrimary]++
			if err != nil || status != http.StatusOK {
				fetches.failed++
				fetches.failedByClass[classPrimary]++
				continue
			}
			fetches.ok++
			if etag != fresh[k] {
				etagMismatch++
			}
			fetches.lat[classPrimary] = append(fetches.lat[classPrimary], ms)
			window = append(window, ms)
			if on {
				latOn = append(latOn, ms)
			} else {
				latOff = append(latOff, ms)
			}
		}
		fetches.windows = append(fetches.windows, window)
		cycleTimes = append(cycleTimes, time.Since(cycle).Seconds())
	}
	rt1 := takeRT()
	if rec != nil {
		rec.on.Store(true)
	}
	rep.count(fetches)
	for _, e := range lane.errs {
		rep.note("error: %s", e)
	}

	rep.gate(solves == 0, "restarts ran no LP solves (%d over %d restarts)", solves, len(restartTimes))
	rep.gate(etagMismatch == 0 && fetches.failed == 0, "%d post-restart fetches served the fresh bring-up's v2 ETags (%d differ, %d failed)",
		fetches.sent, etagMismatch, fetches.failed)
	rep.gate(hydrated > 0, "restarts hydrated %d entries from the store", hydrated)
	if err := checkForests(ctx, rep, last, []*httpLane{lane}, len(keys)); err != nil {
		return err
	}

	cycleSum := 0.0
	for _, c := range cycleTimes {
		cycleSum += c
	}
	lat := fetches.lat[classPrimary]
	traceOn, traceOff := median(latOn), median(latOff)
	rep.set("setup_s", median(setupTimes), "s", len(setupTimes))
	rep.set("restart_s", median(restartTimes), "s", len(restartTimes))
	rep.set("restart_cpu_ms", median(restartCPU), "ms", len(restartCPU))
	rep.set("sustained_rps", ratio(float64(fetches.ok), cycleSum), "1/s", len(cycleTimes))
	rep.set("p50_ms", quantile(append([]float64(nil), lat...), 0.5), "ms", len(lat))
	rep.set("p99_ms", fetches.windowP99(), "ms", len(lat))
	rep.set("forest_p90_ms", quantile(append([]float64(nil), lat...), 0.9), "ms", len(lat))
	rep.set("forest_p99_ms", quantile(append([]float64(nil), lat...), 0.99), "ms", len(lat))
	rep.set("cpu_ms_per_op", ratio(float64(rt1.cpu-rt0.cpu)/1e6, float64(len(cycleTimes))), "ms", len(cycleTimes))
	rep.set("alloc_kb_per_op", ratio(float64(rt1.alloc-rt0.alloc)/1024, float64(len(cycleTimes))), "KB", len(cycleTimes))
	rep.set("wire_bytes_per_op", ratio(float64(lane.wire-wire0), float64(len(cycleTimes))), "B", len(cycleTimes))
	rep.note("restarts %d, setups (s) %v", len(restartTimes), roundAll(setupTimes))
	// The fetch latencies grow with the number of restarts the machine
	// managed: release them before the live heap is measured.
	fetches.lat, fetches.windows = [numClasses][]float64{}, nil
	rep.set("heap_mb", liveHeapMB(), "MB", 1)
	if !o.trace {
		return nil
	}

	if err := hydrateSpans(ctx, []*registry.Registry{last}, rec); err != nil {
		return err
	}
	spans := rec.snapshot()
	setPercentiles(rep, "proto.report_self_us", nil, "us")
	rep.set("proto.report_bytes", 0, "B", 0)
	setForestLayer(rep, filterSpans(spans, spanHTTPForest, nil), []*httpLane{lane})
	setClusterLayer(rep, 0, nil, 0, 0)
	setPercentiles(rep, "stream.frame_self_us", nil, "us")
	rep.set("stream.bytes_per_item", 0, "B", 0)
	setPercentiles(rep, "registry.report_us", nil, "us")
	rep.set("registry.reanchor_us.p99", 0, "us", 0)
	setSessionBudget(rep, last.AggregateSessionStats(), last.AggregateSessionStats(), last.AggregateBudgetStats(), last.AggregateBudgetStats())
	setCore(rep, spans, setupEngine, engineStats(last))
	setStore(rep, spans, st.storeBytes(), hydrated)
	setRuntime(rep, rt0, rt1, len(cycleTimes))
	rep.set("gen.lag_p99_ms", 0, "ms", 0)
	for _, k := range []string{"cpu", "ref", "ladder"} {
		p := &phaseResult{}
		if k == "ref" {
			p = fetches
		}
		rep.set("gen."+k+".sent", float64(p.sent), "count", 1)
		rep.set("gen."+k+".ok", float64(p.ok), "count", 1)
		rep.set("gen."+k+".failed", float64(p.failed), "count", 1)
	}
	rep.set("trace.overhead_us", (traceOn-traceOff)*1e3, "us", len(restartTimes)/2)
	rep.set("trace.overhead_ratio", ratio(traceOn-traceOff, traceOff), "ratio", len(restartTimes)/2)
	rep.set("trace.spans", float64(len(spans)-setupSpans), "count", 1)
	return rec.dump(o.spanPath())
}
