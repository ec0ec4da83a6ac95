package main

// Workload http-cluster: HTTP/JSON traffic against two clustered nodes.
// The client does not know the ring: each user is pinned to one of the two
// connections (one per node), so about half of the reports take the
// one-hop corgi-stream forward to their owner. Stationary users send
// single-draw /v1/report requests with preference-free policies; about
// one request in ten is a GET /v1/forest v2 fetch from a
// download-and-customize device, some revalidating with If-None-Match.

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"corgi/internal/budget"
	"corgi/internal/cluster"
	"corgi/internal/geo"
	"corgi/internal/gowalla"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/proto"
	"corgi/internal/registry"
)

const (
	benchRegion    = "sf" // the serving workloads' region (default builtin spec)
	httpUsers      = 2000 // well under each node's session cap: every stream stays resident
	httpDevices    = 64
	httpForestOdds = 10 // one job in ten is a forest fetch
	httpLimitMs    = 10 // p99 latency limit per report
	httpRefRate    = 500
	httpCPUJobs    = 30000 // jobs of the closed-loop CPU phase
)

// httpLadder is the fixed rate ladder (jobs/s, reports are 9 in 10): 5%
// rungs from 500/s; the first pass climbs from rung 16 (~1090/s) in strides
// of four rungs (~22%).
var httpLadder = ladder{base: 500, step: 1.05, rungs: 60}

const (
	httpClimbStart  = 16
	httpClimbStride = 4
)

// preference-free policies of the http-cluster users.
var httpPolicies = []policy.Policy{
	{PrivacyLevel: 1, PrecisionLevel: 0},
	{PrivacyLevel: 2, PrecisionLevel: 0},
	{PrivacyLevel: 2, PrecisionLevel: 1},
}

type httpUser struct {
	uid  int64
	cell hexgrid.Coord
	pol  int
	seed int64
	lane int
	// draws counts the user's checked answers and seq hashes their
	// sequence (seqHash), for the replay check.
	draws int
	seq   uint64
}

// answer is one successful single-draw report as the client saw it.
type answer struct {
	root [2]int
	prec int
	node [2]int
}

// userAnswer is an answer waiting for its check.
type userAnswer struct {
	u *httpUser
	a answer
}

const seqHash0 = 14695981039346656037 // FNV-1a offset basis

// seqHash folds one answer into a running FNV-1a hash of a draw sequence.
func seqHash(h uint64, a answer) uint64 {
	for _, x := range [...]int{a.root[0], a.root[1], a.prec, a.node[0], a.node[1]} {
		h = (h ^ uint64(x)) * 1099511628211
	}
	return h
}

type httpJob struct {
	forest bool
	user   int // index into users
	device int
	level  int
	inm    bool
}

// httpLane is one connection's client state; only its goroutine touches it.
type httpLane struct {
	base         string
	client       *http.Client
	gz           *gzip.Reader
	etags        [httpDevices][3]string
	bodies       map[string][]byte // first body seen per ETag
	bodyType     map[string]string
	bodyRegion   map[string]string
	reportBytes  int
	reports      int
	forestBytes  int
	forests200   int
	forests304   int
	gzipped      int
	responses200 int
	wire         int // request and response body bytes exchanged
	pending      []userAnswer
	errs         []string
}

func newHTTPLane(base string) *httpLane {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpLane{base: base, client: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		bodies: map[string][]byte{}, bodyType: map[string]string{}, bodyRegion: map[string]string{}}
}

// do sends one request offering gzip (as Go's default client does) and
// returns the status, headers and decoded body; wire counts body bytes as
// received.
func (l *httpLane) do(req *http.Request) (int, http.Header, []byte, int, error) {
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, nil, nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, nil, 0, err
	}
	wire := len(raw)
	l.wire += wire
	if resp.Header.Get("Content-Encoding") == "gzip" {
		l.gzipped++
		if l.gz == nil {
			l.gz, err = gzip.NewReader(bytes.NewReader(raw))
		} else {
			err = l.gz.Reset(bytes.NewReader(raw))
		}
		if err != nil {
			return 0, nil, nil, 0, err
		}
		if raw, err = io.ReadAll(l.gz); err != nil {
			return 0, nil, nil, 0, err
		}
	}
	if resp.StatusCode == http.StatusOK {
		l.responses200++
	}
	return resp.StatusCode, resp.Header, raw, wire, nil
}

func (l *httpLane) fail(format string, args ...any) bool {
	if len(l.errs) < 5 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
	return false
}

func (l *httpLane) report(u *httpUser) bool {
	body, err := json.Marshal(proto.ReportRequest{
		Region: benchRegion, Cell: [2]int{u.cell.Q, u.cell.R}, UID: u.uid,
		Policy: httpPolicies[u.pol], Seed: u.seed, Count: 1,
	})
	if err != nil {
		return l.fail("encode report: %v", err)
	}
	l.wire += len(body)
	req, err := http.NewRequest(http.MethodPost, l.base+"/v1/report", bytes.NewReader(body))
	if err != nil {
		return l.fail("report request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	status, _, raw, wire, err := l.do(req)
	if err != nil {
		return l.fail("report: %v", err)
	}
	if status != http.StatusOK {
		return l.fail("report uid %d: status %d: %s", u.uid, status, strings.TrimSpace(string(raw)))
	}
	var rr proto.ReportResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		return l.fail("decode report: %v", err)
	}
	if len(rr.Reports) != 1 {
		return l.fail("uid %d: %d reports, want 1", u.uid, len(rr.Reports))
	}
	l.reportBytes += wire
	l.reports++
	l.pending = append(l.pending, userAnswer{u, answer{root: rr.SubtreeRoot, prec: rr.PrecisionLevel,
		node: [2]int{rr.Reports[0].Q, rr.Reports[0].R}}})
	return true
}

func (l *httpLane) forest(j httpJob) bool {
	tag := l.etags[j.device][j.level]
	inm := ""
	if j.inm {
		inm = tag
	}
	status, etag, err := l.getForest(benchRegion, j.level, 0, inm)
	switch {
	case err != nil:
		return l.fail("forest level %d: %v", j.level, err)
	case status == http.StatusOK:
		l.etags[j.device][j.level] = etag
		return true
	case status == http.StatusNotModified && inm != "":
		return true
	default:
		return l.fail("forest level %d: status %d (If-None-Match %q)", j.level, status, inm)
	}
}

// getForest fetches one forest in the v2 encoding, revalidating with
// ifNoneMatch when it is not empty, and returns the status and ETag. The
// first body seen under each ETag is kept for the post-run decode check.
func (l *httpLane) getForest(region string, level, delta int, ifNoneMatch string) (int, string, error) {
	url := fmt.Sprintf("%s/v1/forest?region=%s&privacy_l=%d&delta=%d", l.base, region, level, delta)
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Accept", proto.ContentTypeForestV2)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	status, hdr, raw, wire, err := l.do(req)
	if err != nil {
		return 0, "", err
	}
	switch status {
	case http.StatusOK:
		etag := hdr.Get("ETag")
		if etag == "" {
			return status, "", fmt.Errorf("no ETag")
		}
		if _, ok := l.bodies[etag]; !ok {
			l.bodies[etag] = raw
			l.bodyType[etag] = hdr.Get("Content-Type")
			l.bodyRegion[etag] = region
		}
		l.forestBytes += wire
		l.forests200++
		return status, etag, nil
	case http.StatusNotModified:
		l.forests304++
		return status, ifNoneMatch, nil
	}
	return status, "", nil
}

// stationaryUsers draws the user pool from a gowalla.Generate corpus
// clipped to the region: each user reports from their most visited cell.
func stationaryUsers(seed int64, tree *loctree.Tree, n int, rng *rand.Rand) ([]*httpUser, error) {
	ds, err := gowalla.Generate(gowalla.GenConfig{Seed: seed, NumUsers: n, NumCheckIns: 8 * n, BBox: treeBBox(tree)})
	if err != nil {
		return nil, err
	}
	var users []*httpUser
	for _, tr := range gowalla.Trajectories(ds.CheckIns) {
		counts := map[loctree.NodeID]int{}
		var best loctree.NodeID
		for _, c := range tr.Points {
			leaf, ok := tree.Locate(c.Loc, 0)
			if !ok {
				continue
			}
			counts[leaf]++
			if counts[leaf] > counts[best] || (counts[leaf] == counts[best] && lessNode(leaf, best)) {
				best = leaf
			}
		}
		if len(counts) == 0 {
			continue
		}
		uid := int64(tr.UserID) + 1
		users = append(users, &httpUser{uid: uid, cell: best.Coord, pol: rng.Intn(len(httpPolicies)),
			seed: rng.Int63(), lane: int(uid % 2), seq: seqHash0})
	}
	if len(users) == 0 {
		return nil, fmt.Errorf("no user landed inside region %s", benchRegion)
	}
	return users, nil
}

func lessNode(a, b loctree.NodeID) bool {
	if a.Coord.Q != b.Coord.Q {
		return a.Coord.Q < b.Coord.Q
	}
	return a.Coord.R < b.Coord.R
}

func runHTTPCluster(o *options, rep *report) error {
	ctx := context.Background()
	specs, err := builtinSpecs(benchRegion)
	if err != nil {
		return err
	}
	cfg := stackCfg{
		specs: specs, warmDelta: 0, nodes: 2, serve: true,
		// A cap no user reaches: every report is granted, so the ledger
		// check is exact (granted epsilon = draws x epsilon).
		budget: budget.Config{LimitEps: 1e12, Window: time.Hour},
	}
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
	setupSpans := len(rec.snapshot())
	setupEngine := engineStats(st.regs()...)
	st.flush(rec)

	sh, err := st.nodes[0].reg.Shard(ctx, benchRegion)
	if err != nil {
		return err
	}
	tree := sh.Server.Tree()
	epsilon := sh.Spec.Epsilon
	rng := rand.New(rand.NewSource(o.seed))
	users, err := stationaryUsers(o.seed, tree, httpUsers, rng)
	if err != nil {
		return err
	}
	ring, err := cluster.NewRing([]string{st.nodes[0].name, st.nodes[1].name}, 0, 0)
	if err != nil {
		return err
	}
	lanes := []*httpLane{newHTTPLane(st.nodes[0].httpURL), newHTTPLane(st.nodes[1].httpURL)}
	defer func() {
		for _, l := range lanes {
			l.client.CloseIdleConnections()
		}
	}()

	// The traffic cursor: one deterministic job sequence shared by every
	// phase in order, so each user's request order is fixed by the seed.
	nextJob := func() httpJob {
		if rng.Intn(httpForestOdds) == 0 {
			return httpJob{forest: true, device: rng.Intn(httpDevices), level: 1 + rng.Intn(2), inm: rng.Intn(2) == 0}
		}
		return httpJob{user: rng.Intn(len(users))}
	}
	runPhase := func(name string, rate float64, dur, window time.Duration) *phaseResult {
		var jobs []httpJob
		ph := &phase{name: name, rate: rate, dur: dur, window: window, lanes: 2,
			lane: func(k int) int {
				j := nextJob()
				jobs = append(jobs, j)
				if j.forest {
					return j.device % 2
				}
				return users[j.user].lane
			},
			exec: func(l, k int) outcome {
				j := jobs[k]
				if j.forest {
					ok := true
					_ = rec.record(spanHTTPForest, l, int64(j.device), func() error { ok = lanes[l].forest(j); return nil })
					return outcome{class: classForest, ok: ok}
				}
				u := users[j.user]
				ok := true
				_ = rec.record(spanHTTPReport, l, u.uid, func() error { ok = lanes[l].report(u); return nil })
				return outcome{class: classPrimary, ok: ok}
			},
		}
		if name == "cpu" {
			ph.count = httpCPUJobs / cpuChunks
		}
		wire := lanes[0].wire + lanes[1].wire
		p := ph.run()
		p.wire = lanes[0].wire + lanes[1].wire - wire
		return p
	}

	chk, err := newDrawChecker(ctx, st.nodes[0].reg, benchRegion, httpPolicies)
	if err != nil {
		return err
	}
	var badDraw error
	fold := func() {
		for _, l := range lanes {
			for _, p := range l.pending {
				if err := chk.check(p.u.uid, p.u.cell, p.u.pol, p.a.root, p.a.prec, [][2]int{p.a.node}); err != nil && badDraw == nil {
					badDraw = err
				}
				p.u.draws++
				p.u.seq = seqHash(p.u.seq, p.a)
			}
			l.pending = nil
		}
		chk.forget()
	}

	before := engineStats(st.regs()...)
	sessBefore := sessionTotals(st.regs()...)
	budBefore := budgetTotals(st.regs()...)
	rt0 := takeRT()
	ms := measureServing(o, rec, servingLoad{
		run: runPhase, fold: fold, heap: liveHeapMB,
		refRate: httpRefRate, ladder: httpLadder, climbStart: httpClimbStart, climbStride: httpClimbStride, limitMs: httpLimitMs,
	})
	rt1 := takeRT()
	after := engineStats(st.regs()...)
	sessAfter := sessionTotals(st.regs()...)
	budAfter := budgetTotals(st.regs()...)

	var cs cluster.Stats
	for _, n := range st.nodes {
		s := n.router.Stats()
		cs.HTTPFallbacks += s.HTTPFallbacks
		cs.HandoffsSent += s.HandoffsSent
	}
	for _, p := range ms.all {
		rep.count(p)
	}
	notePhases(rep, ms.all)
	for _, l := range lanes {
		for _, e := range l.errs {
			rep.note("error: %s", e)
		}
	}

	// Correctness gates.
	rep.gate(!ms.refBehind, "reference phase kept its schedule (lag p99 %.3f ms)", ms.refLagP99)
	rep.gate(after.Solves == before.Solves, "no LP solves during measured phases (%d)", after.Solves-before.Solves)
	rep.gate(cs.HTTPFallbacks == 0, "no HTTP fallbacks on cluster forwards (%d)", cs.HTTPFallbacks)
	rep.gate(sessAfter.Evicted == 0, "every user's session stayed resident (%d evicted)", sessAfter.Evicted)
	draws := 0
	for _, u := range users {
		draws += u.draws
	}
	failed := failedRequests(ms.all)
	rep.gate(failed == 0 && draws > 0, "every request answered over all phases (%d failed; %d draws)", failed, draws)
	granted := budAfter.EpsGranted
	rep.gate(math.Abs(granted-float64(draws)*epsilon) <= 1e-6*math.Max(1, granted),
		"granted epsilon %.1f = %d draws x %.0f summed over both nodes", granted, draws, epsilon)
	rep.gate(badDraw == nil, "%d reported nodes inside range, at precision, outside pruned set (%v)", chk.checked, badDraw)
	if err := checkHTTPReplay(ctx, rep, st, users); err != nil {
		return err
	}
	if err := checkForests(ctx, rep, st.nodes[0].reg, lanes, 2); err != nil {
		return err
	}

	restartTimes, restartCPU, regs, err := st.restarts(ctx, restartCount)
	if err != nil {
		return err
	}
	rep.gate(engineStats(regs...).Solves == 0, "restarts ran no LP solves")
	hydrated := engineStats(regs...).StoreHydrated

	setCommonServing(rep, ms, setupTimes, restartTimes, restartCPU, rt0, rt1, ms.knee*(httpForestOdds-1)/httpForestOdds)
	if !o.trace {
		return nil
	}

	// Per-layer metrics from the traced run.
	if err := hydrateSpans(ctx, regs, rec); err != nil {
		return err
	}
	spans := rec.snapshot()
	ref := spansIn(spans, ms.refWindow)
	offOwner := func(s span) bool { return ring.Owner(s.Key) != st.nodes[s.Node].name }
	forwardedIn := func(s span) bool { return s.Flags&flagForwarded != 0 }
	one := func(s span) []int64 { return []int64{s.Key} }
	entry := filterSpans(ref, spanProtoHandler, nil)
	reportSelf := selfTimes(filterSpans(ref, spanHTTPReport, nil), indexSpans(ref, spanProtoHandler, nil), one)
	fwdParents := filterSpans(ref, spanProtoHandler, offOwner)
	fwdSelf := selfTimes(fwdParents, indexSpans(ref, spanStreamHandle, forwardedIn), one)
	// Registry time: owner-served entry spans and forwarded-in owner spans.
	local := filterSpans(ref, spanProtoHandler, func(s span) bool { return !offOwner(s) })
	local = append(local, filterSpans(ref, spanStreamHandle, forwardedIn)...)
	var reanchorUs []float64
	for _, s := range local {
		if s.Flags&flagReanchored != 0 {
			reanchorUs = append(reanchorUs, float64(s.dur())/1e3)
		}
	}
	reportBytes, reports := 0, 0
	for _, l := range lanes {
		reportBytes += l.reportBytes
		reports += l.reports
	}
	var ssBytes, ssItems uint64
	for _, n := range st.nodes {
		s := n.ss.Stats()
		ssBytes += s.BytesIn + s.BytesOut
		ssItems += s.Reports + s.BatchItems
	}
	setPercentiles(rep, "proto.report_self_us", reportSelf, "us")
	rep.set("proto.report_bytes", ratio(float64(reportBytes), float64(reports)), "B", reports)
	setForestLayer(rep, ref, lanes)
	setClusterLayer(rep, ratio(float64(len(fwdParents)), float64(len(entry))), fwdSelf, cs.HTTPFallbacks, cs.HandoffsSent)
	setPercentiles(rep, "stream.frame_self_us", nil, "us")
	rep.set("stream.bytes_per_item", ratio(float64(ssBytes), float64(ssItems)), "B", int(ssItems))
	setPercentiles(rep, "registry.report_us", durations(local, 1e3), "us")
	rep.set("registry.reanchor_us.p99", quantile(reanchorUs, 0.99), "us", len(reanchorUs))
	setSessionBudget(rep, sessBefore, sessAfter, budBefore, budAfter)
	setCore(rep, spans, setupEngine, after)
	setStore(rep, spans, st.storeBytes(), hydrated)
	setGen(rep, ms)
	setOverhead(rep, ms, len(spans)-setupSpans)
	return rec.dump(o.spanPath())
}

// checkHTTPReplay replays each user's request sequence against a fresh
// single-node registry hydrated from node 0's store: forwarding must not
// change a single draw, so every user's replayed sequence must hash to the
// hash of the answers served.
func checkHTTPReplay(ctx context.Context, rep *report, st *stack, users []*httpUser) error {
	replay, _, err := openRegistry(ctx, st.cfg, st.nodes[0].storeDir, 0, nil)
	if err != nil {
		return err
	}
	mismatch, replayed := 0, 0
	var first string
	for _, u := range users {
		seq := uint64(seqHash0)
		for i := 0; i < u.draws; i++ {
			res, err := replay.Report(ctx, registry.ReportRequest{Region: benchRegion, Cell: u.cell, UID: u.uid,
				Policy: httpPolicies[u.pol], Seed: u.seed, Count: 1})
			if err != nil {
				return fmt.Errorf("replay uid %d: %w", u.uid, err)
			}
			seq = seqHash(seq, answer{root: [2]int{res.SubtreeRoot.Coord.Q, res.SubtreeRoot.Coord.R}, prec: res.PrecisionLevel,
				node: [2]int{res.Reports[0].Coord.Q, res.Reports[0].Coord.R}})
			res.Release()
			replayed++
		}
		if seq != u.seq {
			if mismatch == 0 {
				first = fmt.Sprintf("uid %d: %d draws served hash %x, replay %x", u.uid, u.draws, u.seq, seq)
			}
			mismatch++
		}
	}
	rep.gate(mismatch == 0, "%d draws equal an in-process registry.Report replay (%d users differ %s)", replayed, mismatch, first)
	return nil
}

// checkForests gates the forest fetches: every distinct body decodes
// against its region's tree, and there are no more distinct ETags than
// forests fetched (want) — one per forest across nodes, fetches and
// restarts.
func checkForests(ctx context.Context, rep *report, reg *registry.Registry, lanes []*httpLane, want int) error {
	tags := map[string]bool{}
	var bad error
	for _, l := range lanes {
		for tag, body := range l.bodies {
			tags[tag] = true
			sh, err := reg.Shard(ctx, l.bodyRegion[tag])
			if err != nil {
				return err
			}
			if _, err := proto.DecodeForestBody(sh.Server.Tree(), l.bodyType[tag], body); err != nil && bad == nil {
				bad = err
			}
		}
	}
	rep.gate(bad == nil && len(tags) <= want, "forest bodies decode; %d distinct ETags for %d forests (%v)", len(tags), want, bad)
	return nil
}

// treeBBox is the region's leaf bounding box padded by one leaf spacing.
func treeBBox(tree *loctree.Tree) geo.BoundingBox {
	b := geo.BoundingBox{MinLat: 90, MinLng: 180, MaxLat: -90, MaxLng: -180}
	for _, leaf := range tree.LevelNodes(0) {
		c := tree.Center(leaf)
		b.MinLat = math.Min(b.MinLat, c.Lat)
		b.MaxLat = math.Max(b.MaxLat, c.Lat)
		b.MinLng = math.Min(b.MinLng, c.Lng)
		b.MaxLng = math.Max(b.MaxLng, c.Lng)
	}
	const pad = 0.0005 // ~50 m, half a leaf spacing
	b.MinLat, b.MaxLat, b.MinLng, b.MaxLng = b.MinLat-pad, b.MaxLat+pad, b.MinLng-pad, b.MaxLng+pad
	return b
}
