package main

// The span recorder. Spans are taken only from outside the program: the
// benchmark wraps the public seams (registry.ReportHandler decorators on
// the HTTP and stream entry points, calls into core/registry/store from
// set-up code, and the load generator's own client calls). Spans stay in
// memory and are written out as JSON lines when the run ends. A layer's
// self time is its span minus the union of its child spans, where a child
// is a span of the inner seam with the same key (the uid; one user never
// has two requests in flight) lying inside the parent's interval.

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"corgi/internal/registry"
)

// Span names.
const (
	spanHTTPReport   = "client.http.report"   // client round trip, key uid
	spanHTTPForest   = "client.http.forest"   // client round trip, key device
	spanStreamFrame  = "client.stream.frame"  // client exchange, key frame index
	spanProtoHandler = "proto.handler"        // MultiHandler.Handler seam, key uid
	spanStreamHandle = "stream.handler"       // stream.Server handler seam, key uid
	spanForest       = "core.generate_forest" // GenerateForestCtx, key privacy level
	spanHydrate      = "store.hydrate"        // HydrateFromStore, key shard index
	spanFlush        = "store.flush"          // Registry.FlushStores
)

// Span flags.
const (
	flagReanchored = 1 << iota // the report re-anchored its session
	flagForwarded              // the request arrived as a cluster forward
	flagErr                    // the call returned an error
)

type span struct {
	Name  string `json:"name"`
	Node  int    `json:"node"`
	Key   int64  `json:"key"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Flags int    `json:"flags"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder collects spans while on. With the recorder off the decorators
// cost one atomic load, which is how a traced run measures its own
// overhead against an untraced phase.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// record times fn as one span when the recorder is on (r may be nil).
func (r *recorder) record(name string, node int, key int64, fn func() error) error {
	if r == nil || !r.on.Load() {
		return fn()
	}
	start := r.now()
	err := fn()
	flags := 0
	if err != nil {
		flags = flagErr
	}
	r.add(span{Name: name, Node: node, Key: key, Start: start, End: r.now(), Flags: flags})
	return err
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// dump writes every span as one JSON line.
func (r *recorder) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedHandler decorates a registry.ReportHandler seam with spans.
type tracedHandler struct {
	inner registry.ReportHandler
	rec   *recorder
	name  string
	node  int
}

func (h *tracedHandler) Report(ctx context.Context, req registry.ReportRequest) (*registry.ReportResult, error) {
	if !h.rec.on.Load() {
		return h.inner.Report(ctx, req)
	}
	start := h.rec.now()
	res, err := h.inner.Report(ctx, req)
	flags := 0
	if req.Forwarded {
		flags |= flagForwarded
	}
	if err != nil {
		flags |= flagErr
	} else if res.Reanchored {
		flags |= flagReanchored
	}
	h.rec.add(span{Name: h.name, Node: h.node, Key: req.UID, Start: start, End: h.rec.now(), Flags: flags})
	return res, err
}

func (h *tracedHandler) Lease(ctx context.Context, req registry.LeaseRequest) (*registry.LeaseGrant, error) {
	return h.inner.Lease(ctx, req)
}

// spanIndex groups spans of one name by key, each list sorted by start.
type spanIndex map[int64][]span

func indexSpans(spans []span, name string, keep func(span) bool) spanIndex {
	idx := spanIndex{}
	for _, s := range spans {
		if s.Name == name && (keep == nil || keep(s)) {
			idx[s.Key] = append(idx[s.Key], s)
		}
	}
	for _, l := range idx {
		sort.Slice(l, func(a, b int) bool { return l[a].Start < l[b].Start })
	}
	return idx
}

// within returns the span of key lying inside [start, end], if any.
func (idx spanIndex) within(key, start, end int64) (span, bool) {
	l := idx[key]
	i := sort.Search(len(l), func(i int) bool { return l[i].Start >= start })
	if i < len(l) && l[i].End <= end {
		return l[i], true
	}
	return span{}, false
}

// unionNs is the total length covered by a set of intervals.
func unionNs(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// selfTimes returns, in µs, each parent span's duration minus the union of
// the children keys(parent) maps it to.
func selfTimes(parents []span, children spanIndex, keys func(span) []int64) []float64 {
	out := make([]float64, 0, len(parents))
	for _, p := range parents {
		var iv [][2]int64
		for _, k := range keys(p) {
			if c, ok := children.within(k, p.Start, p.End); ok {
				iv = append(iv, [2]int64{c.Start, c.End})
			}
		}
		out = append(out, float64(p.dur()-unionNs(iv))/1e3)
	}
	return out
}

// durations returns the spans' durations in the given unit (ns per unit).
func durations(spans []span, unitNs float64) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / unitNs
	}
	return out
}

// filterSpans returns the spans of a name passing keep (nil keeps all).
func filterSpans(spans []span, name string, keep func(span) bool) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name && (keep == nil || keep(s)) {
			out = append(out, s)
		}
	}
	return out
}
