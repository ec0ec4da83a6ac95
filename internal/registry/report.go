package registry

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"corgi/internal/budget"
	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/mechanism"
	"corgi/internal/policy"
	"corgi/internal/session"
)

// ErrBadReport marks report requests rejected for caller-side reasons
// (cell outside the region, invalid policy, over-budget prune set), so the
// serving layer can answer 4xx instead of 5xx.
var ErrBadReport = errors.New("bad report request")

// ErrBudgetExhausted re-exports the accountant's rejection sentinel so
// serving layers can classify it (429 Too Many Requests) without importing
// internal/budget directly.
var ErrBudgetExhausted = budget.ErrBudgetExhausted

// ReportErrStatus maps a report-pipeline error to an HTTP-equivalent
// status and message. It is the single classification every transport
// shares — the HTTP handlers (internal/proto) and the binary stream
// transport (internal/stream) both answer from it, so a given failure is
// the same class on every wire: unknown regions are 404, caller-side
// rejections (bad cell, invalid policy, over-budget prune set) 422, an
// exhausted per-user epsilon budget 429 (the budget regenerates as the
// accounting window slides, so Too Many Requests is the honest class),
// a forged or expired lease token 403, interrupted work 5xx, and anything
// else a server fault.
func ReportErrStatus(err error) (int, string) {
	// A forwarded request's failure arrives as the transport error the
	// owner node answered with (stream.StatusError), carrying the owner's
	// classification, which must pass through unchanged so a 429 on the
	// owner is a 429 to the client.
	var hs interface{ HTTPStatus() int }
	if errors.As(err, &hs) {
		return hs.HTTPStatus(), err.Error()
	}
	switch {
	case errors.Is(err, ErrUnknownRegion):
		return http.StatusNotFound, err.Error()
	case errors.Is(err, ErrBudgetExhausted):
		return http.StatusTooManyRequests, err.Error()
	case errors.Is(err, ErrBadLeaseToken):
		// Forged, tampered, or expired lease tokens: unlike a budget
		// rejection, waiting does not clear the condition.
		return http.StatusForbidden, err.Error()
	case errors.Is(err, ErrBadReport):
		return http.StatusUnprocessableEntity, err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "report timed out: " + err.Error()
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "request canceled"
	default:
		return http.StatusInternalServerError, err.Error()
	}
}

// BudgetRemaining extracts the user's live epsilon headroom from a
// 429-class rejection (0, false for any other error), letting transports
// report eps_remaining on budget rejections without a second accountant
// query.
func BudgetRemaining(err error) (float64, bool) {
	var ex *budget.ExhaustedError
	if errors.As(err, &ex) {
		return ex.Remaining, true
	}
	// Forwarded 429s carry the owner's headroom on the transport error
	// (stream.StatusError's eps_remaining field) rather than as an
	// ExhaustedError.
	var br interface{ BudgetRemaining() (float64, bool) }
	if errors.As(err, &br) {
		return br.BudgetRemaining()
	}
	return 0, false
}

// ReportRequest is one user's report ask: which region, which true leaf
// cell, the inline customization policy, and the draw parameters. Serving
// this path means the true cell and the policy cross the wire — the
// trusted-serving trade-off the report pipeline makes against the paper's
// download-and-customize flow (see ARCHITECTURE.md); deployments that
// must keep Sec. 5's trust model use the forest routes unchanged.
type ReportRequest struct {
	Region string
	// Cell is the axial coordinate of the user's true leaf cell.
	Cell hexgrid.Coord
	// UID selects the per-user view of the region metadata (home/office/
	// outlier attributes), partitions session state between users, and is
	// the unit of epsilon-budget accounting.
	UID int64
	// Policy is the customization triple, evaluated server-side against
	// the shard's metadata.
	Policy policy.Policy
	// Seed fixes the session's RNG stream; a (UID, Seed, Policy) tuple
	// always replays the same draw sequence from a fresh server — even
	// across re-anchors, because the session's RNG survives moves.
	Seed int64
	// Count is how many reports to draw (min 1).
	Count int
	// Forwarded marks a request relayed by a peer node's cluster router:
	// the receiving node serves it locally (it is — or is standing in for —
	// the uid's owner) instead of re-forwarding, which is what makes the
	// routing loop-free.
	Forwarded bool
	// Handoff, on a forwarded request, carries the relaying node's live
	// window spend for this user; the owner merges it before charging so a
	// rebalanced or failed-over user cannot over-spend (see
	// internal/budget/handoff.go).
	Handoff *budget.Handoff
}

// ReportResult carries the drawn reports and the customization facts a
// client may want to display.
type ReportResult struct {
	Region         string
	SubtreeRoot    loctree.NodeID
	PrecisionLevel int
	// Pruned is how many locations the policy's preferences removed from
	// the obfuscation range.
	Pruned  int
	Reports []loctree.NodeID
	// Centers are the reported nodes' centers, index-aligned with
	// Reports, so the serving layer never needs a second shard lookup.
	Centers []geo.LatLng
	// Reanchored is true when this request moved the user's resident
	// session onto a different subtree (or preference anchor) — the
	// mobility slow path between a warm hit and a cold session build.
	Reanchored bool
	// Budgeted is true when the shard runs an epsilon accountant; then
	// EpsSpent is what this request charged (epsilon x draws, linear
	// composition) and EpsRemaining the user's window headroom after it.
	Budgeted     bool
	EpsSpent     float64
	EpsRemaining float64
	// Degraded is true when the reports were drawn from a planar-Laplace
	// fallback entry (degraded serving): the same epsilon bound holds, but
	// utility is below the LP optimum until the background solve lands and
	// the session upgrades.
	Degraded bool

	// bufs, non-nil, backs Reports and Centers with pooled slices;
	// Release returns them.
	bufs *drawBufs
}

// drawBufs is one pooled pair of per-draw result slices. The report hot
// path recycles them across requests (sync.Pool) instead of allocating a
// Reports and a Centers slice per call.
type drawBufs struct {
	nodes   []loctree.NodeID
	centers []geo.LatLng
}

var drawBufsPool = sync.Pool{New: func() any { return new(drawBufs) }}

// Release returns the result's pooled draw buffers for reuse. It is
// optional — a result never released is simply collected by the GC — but
// the serving transports call it after encoding, which is what keeps the
// warm report path allocation-flat. After Release the Reports and Centers
// slices must not be read.
func (res *ReportResult) Release() {
	b := res.bufs
	if b == nil {
		return
	}
	res.bufs, res.Reports, res.Centers = nil, nil, nil
	drawBufsPool.Put(b)
}

// grown returns s resized to n, reallocating only when capacity falls
// short — the pooled-buffer fast path is a reslice.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// prunePlan is the preference evaluation for one (user, subtree): the
// prune set S whose size is the delta the forest entry must absorb.
type prunePlan struct {
	pruned []loctree.NodeID
	anchor loctree.NodeID
}

// evalPrune evaluates the request policy's preferences over the subtree's
// leaves, anchored at the user's true cell. Preference-free policies prune
// nothing and anchor nowhere (their sessions are cell-independent).
func evalPrune(sh *Shard, tree *loctree.Tree, req ReportRequest, root, leaf loctree.NodeID) (prunePlan, error) {
	plan := prunePlan{pruned: []loctree.NodeID{}}
	if len(req.Policy.Preferences) == 0 {
		return plan, nil
	}
	subtreeLeaves := tree.LeavesUnder(root)
	attrs, err := sh.Attrs(int(req.UID), tree.Center(leaf), subtreeLeaves)
	if err != nil {
		return plan, err
	}
	pruned, err := mechanism.EvalPreferences(subtreeLeaves, req.Policy, attrs)
	if err != nil {
		return plan, fmt.Errorf("%w: %v", ErrBadReport, err)
	}
	if pruned == nil {
		pruned = []loctree.NodeID{}
	}
	return prunePlan{pruned: pruned, anchor: leaf}, nil
}

// Report runs the full report pipeline for one request: resolve the
// shard, validate cell and policy, bind (or re-anchor, or reuse) the
// user's session, charge the user's epsilon budget, and draw.
//
// Mobility makes this a three-temperature path:
//
//   - warm: the resident (UID, Seed, Policy) session already covers the
//     reported cell — O(1) draws, no attribute pass, no entry lookup;
//   - re-anchor: the user moved outside the bound subtree (or, for
//     preference-bearing policies, away from their attribute anchor):
//     preferences re-evaluate at the new location, the covering forest
//     entry is fetched (cache or solve), and the session rebinds onto it
//     without resetting its RNG stream;
//   - cold: no resident session — build one.
//
// Budget accounting happens up front, after request validation but before
// any session work: a rejected request consumes nothing from the RNG
// stream (a budget-capped user's replay stays aligned with an uncapped
// one) and pays for no entry generation or re-anchoring.
func (r *Registry) Report(ctx context.Context, req ReportRequest) (*ReportResult, error) {
	sh, err := r.Shard(ctx, req.Region)
	if err != nil {
		return nil, err
	}
	// Merge a forwarded budget handoff before validation and charging:
	// once the request is past region resolution the relaying node may
	// commit its export, so the spend must be counted here even if the
	// request itself is then rejected. Duplicate deliveries dedupe inside
	// ImportHandoff.
	if req.Handoff != nil && sh.Budget != nil {
		sh.Budget.ImportHandoff(req.UID, req.Handoff)
	}
	tree := sh.Server.Tree()
	leaf := loctree.NodeID{Level: 0, Coord: req.Cell}
	if !tree.Contains(leaf) {
		return nil, fmt.Errorf("%w: cell (%d, %d) outside region %q",
			ErrBadReport, req.Cell.Q, req.Cell.R, sh.Spec.Name)
	}
	if err := req.Policy.Validate(tree.Height()); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadReport, err)
	}
	root, ok := tree.AncestorAt(leaf, req.Policy.PrivacyLevel)
	if !ok {
		return nil, fmt.Errorf("%w: no ancestor of %v at privacy level %d",
			ErrBadReport, leaf, req.Policy.PrivacyLevel)
	}

	count := req.Count
	if count < 1 {
		count = 1
	}
	res := &ReportResult{
		Region:         sh.Spec.Name,
		SubtreeRoot:    root,
		PrecisionLevel: req.Policy.PrecisionLevel,
	}
	// Charge epsilon under linear composition — each of the count draws
	// leaks the subtree matrix's epsilon — before any session work: a
	// rejected report never touches the RNG (so a budget-capped user's
	// replay stays aligned with an uncapped one), and an over-budget user
	// hammering moves cannot make the shard pay for entry generation and
	// re-anchoring it will never serve. The flip side: a request that
	// fails after admission (over-budget prune set, degenerate row) has
	// still consumed budget — over-charging is the privacy-conservative
	// direction.
	if sh.Budget != nil {
		cost := sh.Spec.Epsilon * float64(count)
		remaining, err := sh.Budget.Charge(req.UID, cost)
		if err != nil {
			return nil, err
		}
		res.Budgeted = true
		res.EpsSpent = cost
		res.EpsRemaining = remaining
	}

	// The session key is the user's stream identity — region, uid, seed,
	// policy — with no subtree in it: trajectories re-anchor the resident
	// session instead of fragmenting into per-subtree streams.
	key := session.Key{
		Region: sh.Spec.Name,
		UID:    req.UID,
		Seed:   req.Seed,
		Policy: session.PolicyFingerprint(req.Policy),
	}
	hasPrefs := len(req.Policy.Preferences) > 0
	reanchored := false
	sess, ok := sh.Sessions.Get(key)
	if !ok {
		// Cold: evaluate preferences once to size the prune budget the
		// entry must absorb (Sec. 5.3: the request's delta is |S|), then
		// bind a fresh session.
		plan, err := evalPrune(sh, tree, req, root, leaf)
		if err != nil {
			return nil, err
		}
		entry, err := sh.Server.ServeEntryCtx(ctx, root, len(plan.pruned))
		if err != nil {
			return nil, err
		}
		sess, err = sh.Sessions.GetOrCreate(key, func() (*session.Session, error) {
			return session.New(session.Config{
				Tree:    tree,
				Entry:   entry,
				Delta:   len(plan.pruned),
				Policy:  req.Policy,
				Pruned:  plan.pruned,
				Anchor:  plan.anchor,
				Priors:  sh.Server.Priors(),
				Seed:    req.Seed,
				Epsilon: sh.Spec.Epsilon,
			})
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadReport, err)
		}
	}
	// Re-anchor when the trajectory left the bound subtree, or — for
	// preference-bearing policies — moved off the attribute anchor (the
	// "distance" attribute is relative to the user's location, so the
	// prune set must re-evaluate even inside one subtree). This check also
	// covers the GetOrCreate admission race: a race-losing request whose
	// winner is anchored elsewhere re-anchors the shared session instead
	// of failing, which is the right semantics for one moving (uid, seed)
	// stream.
	//
	// The check-then-draw pair loops on ErrOutsideSubtree: a concurrent
	// request on the same stream can re-anchor the shared session between
	// this request's check and its draw, and each request must still be
	// served from its own cell — so retry the re-anchor rather than
	// surface a spurious rejection (whose budget was already charged). The
	// attempt bound only guards against a pathological livelock of
	// perfectly interleaved movers.
	bufs := drawBufsPool.Get().(*drawBufs)
	bufs.nodes = grown(bufs.nodes, count)
	for attempt := 0; ; attempt++ {
		if sess.Root() != root || (hasPrefs && sess.Anchor() != leaf) {
			plan, err := evalPrune(sh, tree, req, root, leaf)
			if err != nil {
				return nil, err
			}
			entry, err := sh.Server.ServeEntryCtx(ctx, root, len(plan.pruned))
			if err != nil {
				return nil, err
			}
			if err := sess.Rebind(session.Rebind{
				Entry:  entry,
				Delta:  len(plan.pruned),
				Pruned: plan.pruned,
				Anchor: plan.anchor,
			}); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadReport, err)
			}
			reanchored = true
		}
		// A session bound while its entry was degraded checks whether the
		// background LP solve has landed and upgrades in place before
		// drawing — the swap never touches the RNG stream, so replayed
		// sequences stay position-aligned across the upgrade.
		if sess.Degraded() {
			d := len(sess.Pruned())
			if e, ok := sh.Server.PeekEntry(sess.Root(), d); ok && !e.Degraded {
				if _, err := sess.Upgrade(e, d); err != nil {
					return nil, err
				}
			}
		}
		res.Degraded = sess.Degraded()
		err := sess.DrawCellNInto(leaf, bufs.nodes)
		if err == nil {
			break
		}
		if errors.Is(err, session.ErrOutsideSubtree) && attempt < 4 {
			continue
		}
		drawBufsPool.Put(bufs)
		if errors.Is(err, session.ErrUnsampleable) {
			// Degenerate matrix data is a server fault (5xx), not a
			// request problem.
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", ErrBadReport, err)
	}
	res.Reanchored = reanchored
	bufs.centers = grown(bufs.centers, count)
	for i, n := range bufs.nodes {
		bufs.centers[i] = tree.Center(n)
	}
	res.Pruned = len(sess.Pruned())
	res.Reports = bufs.nodes
	res.Centers = bufs.centers
	res.bufs = bufs
	return res, nil
}
