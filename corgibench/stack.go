package main

// Bringing up the serving stack in process: registries (with a forest
// store each), corgi-stream servers, HTTP handlers and, for the cluster
// workload, the consistent-hash routers — wired the way cmd/corgi-server
// wires one process.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"corgi/internal/budget"
	"corgi/internal/cluster"
	"corgi/internal/core"
	"corgi/internal/proto"
	"corgi/internal/registry"
	"corgi/internal/store"
	"corgi/internal/stream"
)

// stackCfg is the shape of every node of a workload.
type stackCfg struct {
	specs     []registry.Spec
	warmDelta int
	budget    budget.Config
	nodes     int  // with more than one, every node routes through a cluster router
	serve     bool // serve the HTTP API and corgi-stream
}

// node is one in-process server: what one corgi-server process runs.
type node struct {
	idx      int
	name     string
	reg      *registry.Registry
	st       *store.Store
	storeDir string
	router   *cluster.Router
	ss       *stream.Server
	hs       *http.Server
	httpURL  string
	wg       sync.WaitGroup
}

// stack is a workload's set of nodes.
type stack struct {
	cfg   stackCfg
	nodes []*node
}

func builtinSpecs(names ...string) ([]registry.Spec, error) {
	specs := make([]registry.Spec, len(names))
	for i, n := range names {
		s, ok := registry.BuiltinSpec(n)
		if !ok {
			return nil, fmt.Errorf("no builtin region %q", n)
		}
		specs[i] = s
	}
	return specs, nil
}

// openRegistry builds a registry over an (empty or populated) store and
// brings every region to ready the way corgi-server -eager does:
// BootstrapAll hydrates each region from the store and runs its warmup
// (registry.Options.WarmupDelta) before the next region starts. A traced
// run keeps that schedule but warms each region itself, so that every
// GenerateForestCtx call is a span (the core.forest_ms layer metric).
func openRegistry(ctx context.Context, cfg stackCfg, storeDir string, nodeIdx int, rec *recorder) (*registry.Registry, *store.Store, error) {
	st, err := store.Open(storeDir)
	if err != nil {
		return nil, nil, err
	}
	opts := registry.Options{
		Engine:      core.EngineOptions{Workers: runtime.NumCPU()},
		WarmupDelta: cfg.warmDelta,
		Store:       st,
		Budget:      cfg.budget,
	}
	if rec != nil {
		opts.WarmupDelta = -1
	}
	reg, err := registry.New(cfg.specs, opts)
	if err != nil {
		return nil, nil, err
	}
	if rec == nil {
		if err := reg.BootstrapAll(ctx); err != nil {
			return nil, nil, err
		}
		return reg, st, nil
	}
	for _, name := range reg.Names() {
		sh, err := reg.Shard(ctx, name)
		if err != nil {
			return nil, nil, err
		}
		if err := warmRegion(ctx, sh, cfg.warmDelta, nodeIdx, rec); err != nil {
			return nil, nil, err
		}
	}
	return reg, st, nil
}

// warmRegion generates every (level, delta <= maxDelta) forest of one
// region concurrently and waits for all of them, as core.Server.Warmup
// does, timing each call as a span.
func warmRegion(ctx context.Context, sh *registry.Shard, maxDelta, nodeIdx int, rec *recorder) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for level := 1; level <= sh.Server.Tree().Height(); level++ {
		for delta := 0; delta <= maxDelta; delta++ {
			wg.Add(1)
			go func(level, delta int) {
				defer wg.Done()
				err := rec.record(spanForest, nodeIdx, int64(level), func() error {
					_, err := sh.Server.GenerateForestCtx(ctx, level, delta)
					return err
				})
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("warmup %s level %d delta %d: %w", sh.Spec.Name, level, delta, err)
					}
					mu.Unlock()
				}
			}(level, delta)
		}
	}
	wg.Wait()
	return firstErr
}

// startStack brings up cfg.nodes nodes over fresh store directories under
// dir and returns once every node serves. With rec non-nil the entry
// seams are decorated with spans.
func startStack(ctx context.Context, cfg stackCfg, dir string, rec *recorder) (*stack, error) {
	s := &stack{cfg: cfg}
	streamLis := make([]net.Listener, cfg.nodes)
	httpLis := make([]net.Listener, cfg.nodes)
	peers := make([]cluster.Peer, cfg.nodes)
	for i := 0; i < cfg.nodes; i++ {
		n := &node{idx: i, storeDir: filepath.Join(dir, fmt.Sprintf("node%d-store", i))}
		s.nodes = append(s.nodes, n)
		var err error
		if cfg.serve {
			if streamLis[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
				s.close()
				return nil, err
			}
			n.name = streamLis[i].Addr().String()
			if httpLis[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
				s.close()
				return nil, err
			}
			n.httpURL = "http://" + httpLis[i].Addr().String()
		}
		peers[i] = cluster.Peer{Name: n.name, StreamAddr: n.name, HTTPURL: n.httpURL}
	}
	errs := make([]error, cfg.nodes)
	var wg sync.WaitGroup
	for _, n := range s.nodes {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			n.reg, n.st, errs[n.idx] = openRegistry(ctx, cfg, n.storeDir, n.idx, rec)
		}(n)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		s.close()
		return nil, err
	}
	for _, n := range s.nodes {
		if err := n.serve(cfg, peers, streamLis[n.idx], httpLis[n.idx], rec); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// serve wires the node's transports and starts serving its listeners.
func (n *node) serve(cfg stackCfg, peers []cluster.Peer, sl, hl net.Listener, rec *recorder) error {
	var handler registry.ReportHandler = n.reg
	if cfg.nodes > 1 {
		r, err := cluster.NewRouter(n.reg, n.name, peers, cluster.RouterConfig{})
		if err != nil {
			return err
		}
		n.router = r
		handler = r
	}
	decorate := func(name string) registry.ReportHandler {
		if rec == nil {
			return handler
		}
		return &tracedHandler{inner: handler, rec: rec, name: name, node: n.idx}
	}
	if sl != nil {
		ss, err := stream.NewServer(n.reg, stream.Config{})
		if err != nil {
			return err
		}
		ss.SetHandler(decorate(spanStreamHandle))
		n.ss = ss
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			_ = ss.Serve(sl) // returns ErrServerClosed on close
		}()
	}
	if hl != nil {
		mh, err := proto.NewMultiHandler(n.reg)
		if err != nil {
			return err
		}
		mh.Handler = decorate(spanProtoHandler)
		mh.Stream = n.ss
		mh.Cluster = n.router
		n.hs = &http.Server{Handler: mh.Mux(), ReadHeaderTimeout: 10 * time.Second}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			_ = n.hs.Serve(hl) // returns ErrServerClosed on close
		}()
	}
	return nil
}

// close stops every node's transports and waits for their goroutines.
func (s *stack) close() {
	for _, n := range s.nodes {
		if n.hs != nil {
			n.hs.Close()
		}
		if n.ss != nil {
			n.ss.Close()
		}
		if n.router != nil {
			n.router.Close()
		}
		n.wg.Wait()
		if n.reg != nil {
			n.reg.FlushStores()
		}
	}
}

// timedSetups brings the stack up n times over fresh stores, closes all
// but the last, and returns it with the per-bring-up wall times.
func timedSetups(ctx context.Context, cfg stackCfg, dir string, n int, rec *recorder) (*stack, []float64, error) {
	var times []float64
	var s *stack
	for i := 0; i < n; i++ {
		d := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		start := time.Now()
		var err error
		if s, err = startStack(ctx, cfg, d, rec); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < n-1 {
			s.close()
			s = nil
			os.RemoveAll(d)
		}
	}
	return s, times, nil
}

// flush waits for every node's store write-backs (a store.flush span).
func (s *stack) flush(rec *recorder) {
	for _, n := range s.nodes {
		_ = rec.record(spanFlush, n.idx, 0, func() error { n.reg.FlushStores(); return nil })
	}
}

// restarts brings every node's registry back from its populated store k
// times (nodes in parallel, as a fleet restart would) and returns each
// restart's wall time and process CPU milliseconds, and the last
// restart's registries.
func (s *stack) restarts(ctx context.Context, k int) ([]float64, []float64, []*registry.Registry, error) {
	var times, cpu []float64
	var regs []*registry.Registry
	runtime.GC() // charge the restarts only for their own collections
	for i := 0; i < k; i++ {
		regs = make([]*registry.Registry, len(s.nodes))
		errs := make([]error, len(s.nodes))
		cpu0 := takeRT().cpu
		start := time.Now()
		var wg sync.WaitGroup
		for _, n := range s.nodes {
			wg.Add(1)
			go func(n *node) {
				defer wg.Done()
				regs[n.idx], _, errs[n.idx] = openRegistry(ctx, s.cfg, n.storeDir, n.idx, nil)
			}(n)
		}
		wg.Wait()
		times = append(times, time.Since(start).Seconds())
		cpu = append(cpu, float64(takeRT().cpu-cpu0)/1e6)
		if err := errors.Join(errs...); err != nil {
			return nil, nil, nil, err
		}
	}
	return times, cpu, regs, nil
}

// hydrateSpans times one extra HydrateFromStore on every shard of regs
// (the bring-up already hydrated them; this re-reads every snapshot).
func hydrateSpans(ctx context.Context, regs []*registry.Registry, rec *recorder) error {
	if rec == nil {
		return nil
	}
	for i, reg := range regs {
		for j, name := range reg.Names() {
			sh, err := reg.Shard(ctx, name)
			if err != nil {
				return err
			}
			if err := rec.record(spanHydrate, i, int64(j), func() error {
				_, err := sh.Server.HydrateFromStore(ctx)
				return err
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// engineStats sums the engine counters of regs.
func engineStats(regs ...*registry.Registry) core.EngineStats {
	var s core.EngineStats
	for _, r := range regs {
		s.Merge(r.AggregateStats())
	}
	return s
}

func (s *stack) regs() []*registry.Registry {
	out := make([]*registry.Registry, len(s.nodes))
	for i, n := range s.nodes {
		out[i] = n.reg
	}
	return out
}

// storeBytes sums the on-disk size of every node's store.
func (s *stack) storeBytes() float64 {
	var total int64
	for _, n := range s.nodes {
		if b, err := n.st.SizeBytes(); err == nil {
			total += b
		}
	}
	return float64(total)
}

// rtSnap is a process-wide resource snapshot.
type rtSnap struct {
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
	gc      uint32
}

func takeRT() rtSnap {
	var ru syscall.Rusage
	var snap rtSnap
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		snap.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap.alloc, snap.mallocs, snap.gc = ms.TotalAlloc, ms.Mallocs, ms.NumGC
	return snap
}

// grow adds the resources used between snapshots a and b to s.
func (s *rtSnap) grow(a, b rtSnap) {
	s.cpu += b.cpu - a.cpu
	s.alloc += b.alloc - a.alloc
	s.mallocs += b.mallocs - a.mallocs
	s.gc += b.gc - a.gc
}

// less returns s with the resources counted in d taken out.
func (s rtSnap) less(d rtSnap) rtSnap {
	return rtSnap{cpu: s.cpu - d.cpu, alloc: s.alloc - d.alloc, mallocs: s.mallocs - d.mallocs, gc: s.gc - d.gc}
}

// setRuntime sets the runtime.* layer metrics for ops operations between
// two snapshots.
func setRuntime(rep *report, a, b rtSnap, ops int) {
	o := float64(ops)
	rep.set("runtime.cpu_us_per_op", ratio(float64(b.cpu-a.cpu)/1e3, o), "us", ops)
	rep.set("runtime.alloc_bytes_per_op", ratio(float64(b.alloc-a.alloc), o), "B", ops)
	rep.set("runtime.mallocs_per_op", ratio(float64(b.mallocs-a.mallocs), o), "count", ops)
	rep.set("runtime.gc_cycles", float64(b.gc-a.gc), "count", 1)
}

// liveHeapMB forces a GC and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
