package main

// Workload mobility-batch: corgi-stream REPORTS frames against one node,
// as an aggregating gateway sends them. Users replay gowalla.Trajectories
// with preference-bearing policies, so their prune sets change as they
// move; each frame carries up to 16 items from distinct users. The user
// pool is a few times session.DefaultCap, so warm, re-anchor and cold
// session arms all serve a real share. The epsilon window outlasts the
// run and its cap is one the heaviest users exceed, so every 429 is
// predictable from the trace actually sent. The gateway's second
// connection refreshes forests over HTTP for its download-and-customize
// devices (one fetch per eight frames).

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"corgi/internal/budget"
	"corgi/internal/gowalla"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/session"
	"corgi/internal/stream"
)

const (
	mobUsers      = 5 * session.DefaultCap / 2
	mobCheckins   = 8 // per user in the generated corpus
	mobFrameItems = 16
	// A share of heavy users report twelve times per check-in instead of
	// twice. The epsilon cap admits mobBudgetDraws draws per user: heavy
	// users pass it after four check-ins, the others only after 24 — more
	// than one run reaches.
	mobHeavyShare   = 0.03
	mobHeavyReports = 12
	mobBudgetDraws  = 48
	mobForestEvery  = 8  // frames per gateway forest fetch
	mobLimitMs      = 20 // p99 latency limit per frame
	mobRefRate      = 250
	mobClimbStart   = 12
	mobClimbStride  = 4
	mobDwell        = 10 * time.Minute // dwell reports follow an arrival within this time
	mobArmMinShare  = 0.1
	mobCPUJobs      = 6000 // jobs (frames; forest fetches are skipped) of the closed-loop CPU phase
)

// mobLadder is the fixed rate ladder in jobs/s (8 of 9 jobs are frames).
var mobLadder = ladder{base: mobRefRate, step: 1.05, rungs: 70}

// preference-bearing policies. "distance < 0.19" at privacy level 1
// prunes the cell of the seven-cell subtree farthest from where the user
// stands (0.2 km away, against 0.1 and 0.17 km for the rest), so prune
// sets change with every move, within the warmed δ≤2; "distance < 5" at
// level 2 prunes nothing in a region 1 km across but still re-evaluates
// on every move. Home/office preferences are left out: when a user stands
// on the pruned cell, precision 0 is refused (422) and precision 1 fails
// for about 1% of users (500, "row unsampleable" after pruning), so no
// run on them would be failure-free.
var mobPolicies = []policy.Policy{
	{PrivacyLevel: 1, PrecisionLevel: 0, Preferences: []policy.Predicate{
		{Var: "distance", Op: policy.OpLt, Val: policy.Number(0.19)}}},
	{PrivacyLevel: 1, PrecisionLevel: 0, Preferences: []policy.Predicate{
		{Var: "distance", Op: policy.OpLt, Val: policy.Number(0.19)}}},
	{PrivacyLevel: 2, PrecisionLevel: 0, Preferences: []policy.Predicate{
		{Var: "distance", Op: policy.OpLt, Val: policy.Number(5)}}},
	{PrivacyLevel: 2, PrecisionLevel: 1, Preferences: []policy.Predicate{
		{Var: "distance", Op: policy.OpLt, Val: policy.Number(5)}}},
}

type mobUser struct {
	uid  int64
	pol  int
	seed int64
}

type mobItem struct {
	user int32
	cell hexgrid.Coord
}

// mobJob is a frame of items or, with items nil, a gateway forest fetch.
type mobJob struct {
	items  []mobItem
	forest httpJob
}

// itemRec is one answered item, kept until its check.
type itemRec struct {
	user   int32
	cell   hexgrid.Coord
	status int
	root   [2]int
	prec   int
	node   [2]int
}

// mobilityTraffic builds the users and the job sequence from a
// gowalla.Generate corpus clipped to the region, in global time order.
func mobilityTraffic(seed int64, tree *loctree.Tree, rng *rand.Rand) ([]mobUser, []mobJob, error) {
	ds, err := gowalla.Generate(gowalla.GenConfig{Seed: seed, NumUsers: mobUsers, NumCheckIns: mobUsers * mobCheckins, BBox: treeBBox(tree)})
	if err != nil {
		return nil, nil, err
	}
	type point struct {
		at   time.Time
		item mobItem
	}
	var users []mobUser
	var points []point
	for _, tr := range gowalla.Trajectories(ds.CheckIns) {
		u := int32(len(users))
		users = append(users, mobUser{uid: int64(tr.UserID) + 1, pol: rng.Intn(len(mobPolicies)), seed: rng.Int63()})
		reports := 2 // on arrival and once more while dwelling
		if rng.Float64() < mobHeavyShare {
			reports = mobHeavyReports
		}
		for i, c := range tr.Points {
			leaf, ok := tree.Locate(c.Loc, 0)
			if !ok {
				continue
			}
			// Dwell reports spread over the dwell, before the next arrival.
			dwell := mobDwell
			if i+1 < len(tr.Points) && tr.Points[i+1].Time.Sub(c.Time) < dwell {
				dwell = tr.Points[i+1].Time.Sub(c.Time)
			}
			it := mobItem{user: u, cell: leaf.Coord}
			for k := 0; k < reports; k++ {
				points = append(points, point{c.Time.Add(dwell * time.Duration(k) / time.Duration(reports-1)), it})
			}
		}
	}
	if len(points) == 0 {
		return nil, nil, fmt.Errorf("no check-in landed inside region %s", benchRegion)
	}
	// The stable sort keeps each user's reports in trajectory order.
	sort.SliceStable(points, func(a, b int) bool { return points[a].at.Before(points[b].at) })
	// Pack the time-ordered items into frames of up to mobFrameItems
	// distinct users: an item goes to the first frame after its user's
	// previous one that still has room, so per-user order is kept.
	var frames [][]mobItem
	next := map[int32]int{} // the first frame a user's next item may join
	open := 0               // the first frame that is not yet full
	for _, p := range points {
		f := next[p.item.user]
		if f < open {
			f = open
		}
		for f < len(frames) && len(frames[f]) == mobFrameItems {
			f++
		}
		if f == len(frames) {
			frames = append(frames, nil)
		}
		frames[f] = append(frames[f], p.item)
		next[p.item.user] = f + 1
		for open < len(frames) && len(frames[open]) == mobFrameItems {
			open++
		}
	}
	var jobs []mobJob
	for i, f := range frames {
		jobs = append(jobs, mobJob{items: f})
		if (i+1)%mobForestEvery == 0 {
			jobs = append(jobs, mobJob{forest: httpJob{forest: true, device: rng.Intn(httpDevices), level: 1 + rng.Intn(2), inm: rng.Intn(2) == 0}})
		}
	}
	return users, jobs, nil
}

func runMobilityBatch(o *options, rep *report) error {
	ctx := context.Background()
	specs, err := builtinSpecs(benchRegion)
	if err != nil {
		return err
	}
	epsilon := specs[0].Epsilon
	if epsilon == 0 {
		epsilon = 15 // registry default
	}
	cfg := stackCfg{
		specs: specs, warmDelta: 2, nodes: 1, serve: true,
		budget: budget.Config{LimitEps: mobBudgetDraws * epsilon, Window: 24 * time.Hour},
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
	n := st.nodes[0]
	sh, err := n.reg.Shard(ctx, benchRegion)
	if err != nil {
		return err
	}
	if sh.Spec.Epsilon != epsilon {
		return fmt.Errorf("region epsilon %v, budget assumed %v", sh.Spec.Epsilon, epsilon)
	}
	tree := sh.Server.Tree()
	rng := rand.New(rand.NewSource(o.seed))
	users, jobs, err := mobilityTraffic(o.seed, tree, rng)
	if err != nil {
		return err
	}

	chk, err := newDrawChecker(ctx, n.reg, benchRegion, mobPolicies)
	if err != nil {
		return err
	}
	ic := &itemChecks{chk: chk, users: users, epsilon: epsilon, sent: make([]int, len(users))}

	sc := stream.NewClient(n.name, stream.ClientConfig{MaxIdleConns: 1, Timeout: 30 * time.Second})
	defer sc.Close()
	forests := newHTTPLane(n.httpURL)
	defer forests.client.CloseIdleConnections()
	var (
		errs   []string
		cursor int
		items  int
		frames int
	)
	frame := func(seq int, j mobJob) bool {
		reqs := make([]stream.Request, len(j.items))
		for i, it := range j.items {
			u := users[it.user]
			reqs[i] = stream.Request{Region: benchRegion, Cell: [2]int{it.cell.Q, it.cell.R}, UID: u.uid,
				Policy: mobPolicies[u.pol], Seed: u.seed, Count: 1}
		}
		var res []stream.ItemResult
		err := rec.record(spanStreamFrame, 0, int64(seq), func() error {
			var err error
			res, err = sc.ReportBatch(reqs)
			return err
		})
		if err != nil {
			if len(errs) < 5 {
				errs = append(errs, err.Error())
			}
			return false
		}
		ok := true
		for i, r := range res {
			ir := itemRec{user: j.items[i].user, cell: j.items[i].cell, status: r.Status}
			switch {
			case r.Status == http.StatusOK && r.Report != nil && len(r.Report.Reports) == 1:
				ir.root, ir.prec = r.Report.SubtreeRoot, r.Report.PrecisionLevel
				ir.node = [2]int{r.Report.Reports[0].Q, r.Report.Reports[0].R}
			case r.Status == http.StatusTooManyRequests:
			default:
				ok = false
				if len(errs) < 5 {
					errs = append(errs, fmt.Sprintf("item status %d: %s", r.Status, r.Error))
				}
			}
			ic.pending = append(ic.pending, ir)
		}
		items += len(j.items)
		frames++
		return ok
	}
	runPhase := func(name string, rate float64, dur, window time.Duration) *phaseResult {
		var phaseJobs []int
		closed := name == "cpu"
		ph := &phase{name: name, rate: rate, dur: dur, window: window, lanes: 2,
			lane: func(k int) int {
				idx := cursor
				cursor++
				phaseJobs = append(phaseJobs, idx)
				switch {
				case jobs[idx%len(jobs)].items != nil:
					return 0
				case closed:
					return -1 // the closed loop measures frames only
				}
				return 1
			},
			exec: func(l, k int) outcome {
				seq := phaseJobs[k]
				j := jobs[seq%len(jobs)]
				if l == 1 {
					ok := true
					_ = rec.record(spanHTTPForest, 0, int64(j.forest.device), func() error { ok = forests.forest(j.forest); return nil })
					return outcome{class: classForest, ok: ok}
				}
				return outcome{class: classPrimary, ok: frame(seq, j)}
			},
		}
		if closed {
			ph.count = mobCPUJobs / cpuChunks
		}
		return ph.run()
	}

	// The generated traffic is the benchmark's own memory: the live heap
	// is measured without it, and the ladder runs on a regeneration (the
	// same seed gives the same jobs).
	heap := func() float64 {
		n := len(jobs)
		jobs = nil
		h := liveHeapMB()
		_, jobs, err = mobilityTraffic(o.seed, tree, rand.New(rand.NewSource(o.seed)))
		if err == nil && len(jobs) != n {
			err = fmt.Errorf("regenerated traffic has %d jobs, first generation %d", len(jobs), n)
		}
		return h
	}

	before := engineStats(st.regs()...)
	sessBefore := sessionTotals(st.regs()...)
	budBefore := budgetTotals(st.regs()...)
	ssBefore := n.ss.Stats()
	rt0 := takeRT()
	ms := measureServing(o, rec, servingLoad{
		run: func(name string, rate float64, dur, window time.Duration) *phaseResult {
			before, ss := items, n.ss.Stats()
			p := runPhase(name, rate, dur, window)
			if name == "cpu" { // costs per report item; the closed loop sends frames only
				p.ops = items - before
				s := n.ss.Stats()
				p.wire = int(s.BytesIn + s.BytesOut - ss.BytesIn - ss.BytesOut)
			}
			return p
		},
		fold: ic.fold, heap: heap,
		refRate: mobRefRate, ladder: mobLadder, climbStart: mobClimbStart, climbStride: mobClimbStride, limitMs: mobLimitMs,
	})
	rt1 := takeRT()
	if err != nil {
		return err
	}
	after := engineStats(st.regs()...)
	sessAfter := sessionTotals(st.regs()...)
	budAfter := budgetTotals(st.regs()...)
	ssAfter := n.ss.Stats()
	for _, p := range ms.all {
		rep.count(p)
	}
	notePhases(rep, ms.all)
	for _, e := range append(errs, forests.errs...) {
		rep.note("error: %s", e)
	}

	// Correctness gates.
	rep.gate(!ms.refBehind, "reference phase kept its schedule (lag p99 %.3f ms)", ms.refLagP99)
	rep.gate(after.Solves == before.Solves, "no LP solves during measured phases (%d)", after.Solves-before.Solves)
	failed := failedRequests(ms.all)
	rep.gate(failed == 0, "every request answered over all phases (%d failed)", failed)
	ic.gates(rep, budBefore, budAfter)
	if err := checkForests(ctx, rep, n.reg, []*httpLane{forests}, 2); err != nil {
		return err
	}
	lookups := float64((sessAfter.Hits - sessBefore.Hits) + (sessAfter.Created - sessBefore.Created))
	reanchor := float64(sessAfter.Reanchors - sessBefore.Reanchors)
	warm := float64(sessAfter.Hits-sessBefore.Hits) - reanchor
	cold := float64(sessAfter.Created - sessBefore.Created)
	rep.gate(warm >= mobArmMinShare*lookups && reanchor >= mobArmMinShare*lookups && cold >= mobArmMinShare*lookups,
		"warm/re-anchor/cold session arms each serve >= %.0f%% (%.3f/%.3f/%.3f of %.0f)", mobArmMinShare*100,
		ratio(warm, lookups), ratio(reanchor, lookups), ratio(cold, lookups), lookups)

	restartTimes, restartCPU, regs, err := st.restarts(ctx, restartCount)
	if err != nil {
		return err
	}
	rep.gate(engineStats(regs...).Solves == 0, "restarts ran no LP solves")
	hydrated := engineStats(regs...).StoreHydrated

	meanItems := ratio(float64(items), float64(frames))
	setCommonServing(rep, ms, setupTimes, restartTimes, restartCPU, rt0, rt1, ms.knee*mobForestEvery/(mobForestEvery+1)*meanItems)
	if !o.trace {
		return nil
	}

	if err := hydrateSpans(ctx, regs, rec); err != nil {
		return err
	}
	spans := rec.snapshot()
	ref := spansIn(spans, ms.refWindow)
	handlers := indexSpans(ref, spanStreamHandle, nil)
	frameSpans := filterSpans(ref, spanStreamFrame, nil)
	frameSelf := selfTimes(frameSpans, handlers, func(s span) []int64 {
		j := jobs[int(s.Key)%len(jobs)]
		keys := make([]int64, len(j.items))
		for i, it := range j.items {
			keys[i] = users[it.user].uid
		}
		return keys
	})
	local := filterSpans(ref, spanStreamHandle, nil)
	reanchored := filterSpans(local, spanStreamHandle, func(s span) bool { return s.Flags&flagReanchored != 0 })

	setPercentiles(rep, "proto.report_self_us", nil, "us")
	rep.set("proto.report_bytes", 0, "B", 0)
	setForestLayer(rep, ref, []*httpLane{forests})
	setClusterLayer(rep, 0, nil, 0, 0)
	setPercentiles(rep, "stream.frame_self_us", frameSelf, "us")
	rep.set("stream.bytes_per_item", ratio(float64(ssAfter.BytesIn+ssAfter.BytesOut-ssBefore.BytesIn-ssBefore.BytesOut),
		float64(ssAfter.BatchItems-ssBefore.BatchItems)), "B", int(ssAfter.BatchItems-ssBefore.BatchItems))
	setPercentiles(rep, "registry.report_us", durations(local, 1e3), "us")
	rep.set("registry.reanchor_us.p99", quantile(durations(reanchored, 1e3), 0.99), "us", len(reanchored))
	setSessionBudget(rep, sessBefore, sessAfter, budBefore, budAfter)
	setCore(rep, spans, setupEngine, after)
	setStore(rep, spans, st.storeBytes(), hydrated)
	setGen(rep, ms)
	setOverhead(rep, ms, len(spans)-setupSpans)
	return rec.dump(o.spanPath())
}

// itemChecks gates the mobility answers: every reported node is valid,
// each item's status is exactly what the sent trace predicts (the n-th
// item of a user is refused with 429 iff n exceeds the cap), and the
// granted epsilon equals the granted draws times epsilon. Items are
// checked as they are folded in, between phases, and then released.
type itemChecks struct {
	chk                                  *drawChecker
	users                                []mobUser
	epsilon                              float64
	pending                              []itemRec
	sent                                 []int // items sent per user so far
	bad                                  error
	want429, got429, mismatched, granted int
}

func (c *itemChecks) fold() {
	for _, r := range c.pending {
		c.sent[r.user]++
		expect := http.StatusOK
		if c.sent[r.user] > mobBudgetDraws {
			expect = http.StatusTooManyRequests
			c.want429++
		}
		if r.status == http.StatusTooManyRequests {
			c.got429++
		}
		if r.status != expect {
			c.mismatched++
		}
		if r.status != http.StatusOK {
			continue
		}
		c.granted++
		u := c.users[r.user]
		if err := c.chk.check(u.uid, r.cell, u.pol, r.root, r.prec, [][2]int{r.node}); err != nil && c.bad == nil {
			c.bad = err
		}
	}
	c.pending = nil
	c.chk.forget()
}

// gates records the item gates against the accountant's counters before
// (ba) and after (bb) the measured phases.
func (c *itemChecks) gates(rep *report, ba, bb budget.Stats) {
	heavy := 0
	for _, n := range c.sent {
		if n > mobBudgetDraws {
			heavy++
		}
	}
	rep.gate(c.bad == nil, "%d reported nodes inside range, at precision, outside pruned set (%v)", c.chk.checked, c.bad)
	rep.gate(c.got429 == c.want429 && c.mismatched == 0 && uint64(c.got429) == bb.Rejections-ba.Rejections,
		"%d answers 429 = %d predicted from the sent trace (%d heavy users; accountant %d; %d items off)",
		c.got429, c.want429, heavy, bb.Rejections-ba.Rejections, c.mismatched)
	eps := bb.EpsGranted - ba.EpsGranted
	rep.gate(math.Abs(eps-float64(c.granted)*c.epsilon) <= 1e-6*math.Max(1, eps),
		"granted epsilon %.1f = %d draws x %.0f", eps, c.granted, c.epsilon)
}
