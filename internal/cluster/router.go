package cluster

// The Router is the scale-out decision point, embedded in every node (no
// separate proxy binary — a proxy would be a second hop for every request
// AND a single point of failure). It implements registry.ReportHandler,
// so both transports (internal/proto's JSON routes and internal/stream's
// frame server) route every report/lease ask through it:
//
//   - owner-served: the ring says this node owns the uid → serve from the
//     embedded registry. The warm path: after the client's first request
//     lands on (or is redirected to) the owner, every subsequent draw is
//     node-local — sessions, RNG streams, and budget windows never cross
//     a node boundary, which is what makes throughput scale linearly.
//   - forwarded: another node owns the uid → relay over the peer's
//     corgi-stream connection pool, the only node-to-node transport,
//     attaching this node's budget handoff for the user so spend follows
//     the user to its owner (internal/budget/handoff.go).
//   - failover: the owner (and any closer successor) is unreachable → the
//     ring's deterministic Sequence order names the stand-in every node
//     agrees on; when the walk reaches this node itself, serve locally.
//
// A request already marked Forwarded is always served locally: one
// forward maximum, so no routing loops and a bounded worst-case hop
// count (exactly one) regardless of topology disagreement during a
// membership change (see dispatch).

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"corgi/internal/budget"
	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/registry"
	"corgi/internal/store"
	"corgi/internal/stream"
)

// RouterConfig tunes a cluster router.
type RouterConfig struct {
	// Vnodes and MaxLoadFactor parameterize the ring (see NewRing).
	Vnodes        int
	MaxLoadFactor float64
	// StreamTimeout bounds one forwarded exchange; DialTimeout one peer
	// dial (defaults 10s / 2s — forwards should fail over quickly).
	StreamTimeout time.Duration
	DialTimeout   time.Duration
	// HTTPTimeout bounds one peer store-snapshot fetch over HTTP (default
	// 30s; snapshot payloads can be MBs).
	HTTPTimeout time.Duration
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.StreamTimeout <= 0 {
		c.StreamTimeout = 10 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.HTTPTimeout <= 0 {
		c.HTTPTimeout = 30 * time.Second
	}
	return c
}

// peerNode is one remote member's transport state.
type peerNode struct {
	peer   Peer
	client *stream.Client
}

// Router routes report and lease asks to their owner nodes. It is safe
// for concurrent use; SetMembers swaps the ring atomically under the
// same lock the request paths read it through.
type Router struct {
	self string
	reg  *registry.Registry
	cfg  RouterConfig

	mu    sync.RWMutex
	ring  *Ring
	peers map[string]*peerNode

	httpc *http.Client

	ownerServed   atomic.Uint64
	forwardedIn   atomic.Uint64
	forwardedOut  atomic.Uint64
	failovers     atomic.Uint64
	failoverLocal atomic.Uint64
	handoffsSent  atomic.Uint64
	peerFetches   atomic.Uint64
	peerFetchMiss atomic.Uint64
}

// NewRouter builds the router for one node. self must be one of the
// members' names (every node lists the full cluster, itself included).
func NewRouter(reg *registry.Registry, self string, members []Peer, cfg RouterConfig) (*Router, error) {
	if reg == nil {
		return nil, fmt.Errorf("cluster: nil registry")
	}
	cfg = cfg.withDefaults()
	r := &Router{
		self:  self,
		reg:   reg,
		cfg:   cfg,
		httpc: &http.Client{Timeout: cfg.HTTPTimeout},
	}
	if err := r.SetMembers(members); err != nil {
		return nil, err
	}
	return r, nil
}

// Self returns this node's member name.
func (r *Router) Self() string { return r.self }

// SetMembers replaces the cluster topology: the ring is rebuilt over the
// new member list and peer transports are opened for new members and
// closed for removed ones. Every node must apply the same list — the
// ring is deterministic, so agreement on the list is agreement on
// ownership. Existing in-flight forwards finish on the old transports.
func (r *Router) SetMembers(members []Peer) error {
	names := make([]string, len(members))
	byName := make(map[string]Peer, len(members))
	selfFound := false
	for i, p := range members {
		names[i] = p.Name
		byName[p.Name] = p
		if p.Name == r.self {
			selfFound = true
		}
	}
	if !selfFound {
		return fmt.Errorf("cluster: self %q not in member list %v", r.self, names)
	}
	ring, err := NewRing(names, r.cfg.Vnodes, r.cfg.MaxLoadFactor)
	if err != nil {
		return err
	}
	peers := make(map[string]*peerNode, len(members)-1)
	r.mu.Lock()
	old := r.peers
	for name, p := range byName {
		if name == r.self {
			continue
		}
		if op, ok := old[name]; ok && op.peer == p {
			peers[name] = op // keep the warm connection pool
			continue
		}
		peers[name] = &peerNode{
			peer: p,
			client: stream.NewClient(p.StreamAddr, stream.ClientConfig{
				DialTimeout: r.cfg.DialTimeout,
				Timeout:     r.cfg.StreamTimeout,
			}),
		}
	}
	r.ring = ring
	r.peers = peers
	r.mu.Unlock()
	for name, op := range old {
		if _, kept := peers[name]; !kept {
			op.client.Close()
		}
	}
	return nil
}

// Ring returns the current ring (for stats and tests).
func (r *Router) Ring() *Ring {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring
}

// Owner returns the member owning a uid under the current ring.
func (r *Router) Owner(uid int64) string { return r.Ring().Owner(uid) }

// Close shuts down the peer transports.
func (r *Router) Close() {
	r.mu.Lock()
	peers := r.peers
	r.peers = map[string]*peerNode{}
	r.mu.Unlock()
	for _, pn := range peers {
		pn.client.Close()
	}
}

// route resolves a uid to its serving decision under the current ring:
// the failover sequence and the peer transports, snapshotted together so
// a concurrent SetMembers cannot mix topologies mid-request.
func (r *Router) route(uid int64) ([]string, map[string]*peerNode) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring.Sequence(uid), r.peers
}

// exportHandoff moves the local accountant's live spend for (region, uid)
// into a handoff, returning the commit/rollback hooks bound to it. All
// three are nil/no-ops when there is nothing to hand off.
func (r *Router) exportHandoff(region string, uid int64) (h *budget.Handoff, commit, rollback func()) {
	sh, ok := r.reg.ShardIfReady(region)
	if !ok || sh.Budget == nil {
		return nil, nil, nil
	}
	h = sh.Budget.ExportHandoff(uid, r.self)
	if h == nil {
		return nil, nil, nil
	}
	acct, seq := sh.Budget, h.Seq
	r.handoffsSent.Add(1)
	return h, func() { acct.CommitHandoff(uid, seq) }, func() { acct.RollbackHandoff(uid, seq) }
}

// Report implements registry.ReportHandler: serve locally when this node
// owns (or is standing in for, or received a forward for) the uid,
// otherwise forward to the owner with the budget handoff attached.
func (r *Router) Report(ctx context.Context, req registry.ReportRequest) (*registry.ReportResult, error) {
	return dispatch(r, req.Forwarded, req.Region, req.UID,
		func() (*registry.ReportResult, error) { return r.reg.Report(ctx, req) },
		func(c *stream.Client, h *budget.Handoff) (*registry.ReportResult, error) {
			resp, err := c.Report(stream.Request{
				Region: req.Region, Cell: [2]int{req.Cell.Q, req.Cell.R}, UID: req.UID,
				Policy: req.Policy, Seed: req.Seed, Count: req.Count, Forwarded: true, Handoff: h,
			})
			if err != nil {
				return nil, err
			}
			return toReportResult(&req, resp), nil
		})
}

// Lease implements registry.ReportHandler's lease arm with the same
// routing as Report.
func (r *Router) Lease(ctx context.Context, req registry.LeaseRequest) (*registry.LeaseGrant, error) {
	return dispatch(r, req.Forwarded, req.Region, req.UID,
		func() (*registry.LeaseGrant, error) { return r.reg.Lease(ctx, req) },
		func(c *stream.Client, h *budget.Handoff) (*registry.LeaseGrant, error) {
			return c.Lease(stream.Request{
				Region: req.Region, Cell: [2]int{req.Cell.Q, req.Cell.R}, UID: req.UID,
				Policy: req.Policy, Seed: req.Seed, Forwarded: true, Handoff: h,
			}, req.Draws, req.Token)
		})
}

// dispatch is the routing walk Report and Lease share. A request already
// forwarded is served locally: one hop maximum, whatever this node's ring
// says (the sender's ring may be one membership change ahead or behind —
// serving beats bouncing). Otherwise the uid's ring sequence is walked:
// this node serves when it is reached (as owner, or as stand-in for
// unreachable members before it), and a peer gets the request over
// corgi-stream with this node's budget handoff for the user attached.
//
// A peer that answers, with a result or a status error (429, 422, ...),
// ends the walk: that is the request's real outcome, and any handoff the
// peer imported is applied (import precedes validation), so the export
// commits. A 404 is final too: every node runs the same region set, so
// it is the client's error. A transport failure means the peer never
// processed the request: the export rolls back and the walk fails over
// to the next member.
func dispatch[T any](r *Router, forwarded bool, region string, uid int64,
	local func() (T, error), send func(*stream.Client, *budget.Handoff) (T, error)) (T, error) {
	if forwarded {
		r.forwardedIn.Add(1)
		return local()
	}
	seq, peers := r.route(uid)
	for i, member := range seq {
		if member == r.self {
			if i == 0 {
				r.ownerServed.Add(1)
			} else {
				r.failoverLocal.Add(1)
			}
			return local()
		}
		pn := peers[member]
		if pn == nil { // stale sequence during a SetMembers race: skip
			continue
		}
		h, commit, rollback := r.exportHandoff(region, uid)
		res, err := send(pn.client, h)
		var se *stream.StatusError
		if err == nil || errors.As(err, &se) {
			r.forwardedOut.Add(1)
			if commit != nil {
				commit()
			}
			return res, err
		}
		if rollback != nil {
			rollback()
		}
		r.failovers.Add(1)
	}
	// Unreachable: self is always in its own ring, so the walk returns at
	// the self hop at the latest. Guard for defense in depth.
	r.failoverLocal.Add(1)
	return local()
}

// toReportResult converts a stream response back into the registry's
// result type for the relaying transport to re-encode. Node levels are
// reconstructed from the request policy (the wire sends coordinates
// only); centers round-tripped the stream's 32-bit fixed point (~5mm),
// which is the same representation a direct stream client would see.
func toReportResult(req *registry.ReportRequest, resp *stream.Response) *registry.ReportResult {
	res := &registry.ReportResult{
		Region: resp.Region,
		SubtreeRoot: loctree.NodeID{
			Level: req.Policy.PrivacyLevel,
			Coord: hexgrid.Coord{Q: resp.SubtreeRoot[0], R: resp.SubtreeRoot[1]},
		},
		PrecisionLevel: resp.PrecisionLevel,
		Pruned:         resp.Pruned,
		Reanchored:     resp.Reanchored,
		Budgeted:       resp.Budgeted,
		EpsSpent:       resp.EpsSpent,
		EpsRemaining:   resp.EpsRemaining,
		Degraded:       resp.Degraded,
		Reports:        make([]loctree.NodeID, len(resp.Reports)),
		Centers:        make([]geo.LatLng, len(resp.Reports)),
	}
	for i, rep := range resp.Reports {
		res.Reports[i] = loctree.NodeID{
			Level: resp.PrecisionLevel,
			Coord: hexgrid.Coord{Q: rep.Q, R: rep.R},
		}
		res.Centers[i] = geo.LatLng{Lat: rep.Lat, Lng: rep.Lng}
	}
	return res
}

// FetchSnapshot implements the store's PeerFetchFunc: ask every peer
// with an HTTP endpoint for the snapshot's raw file bytes, first hit
// wins. The store validates the bytes (checksum + key match), so this
// path only needs to move them.
func (r *Router) FetchSnapshot(k store.Key) ([]byte, error) {
	r.mu.RLock()
	peers := make([]*peerNode, 0, len(r.peers))
	for _, pn := range r.peers {
		if pn.peer.HTTPURL != "" {
			peers = append(peers, pn)
		}
	}
	r.mu.RUnlock()
	for _, pn := range peers {
		u := pn.peer.HTTPURL + "/v1/store/snapshot?spec=" + url.QueryEscape(k.SpecHash) +
			"&level=" + strconv.Itoa(k.Level) + "&delta=" + strconv.Itoa(k.Delta)
		resp, err := r.httpc.Get(u)
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			continue
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		resp.Body.Close()
		if err != nil {
			continue
		}
		r.peerFetches.Add(1)
		return raw, nil
	}
	r.peerFetchMiss.Add(1)
	return nil, store.ErrNotFound
}

// NodeStats is one peer transport's health snapshot.
type NodeStats struct {
	Healthy bool               `json:"healthy"`
	Stream  stream.ClientStats `json:"stream"`
}

// Stats is the router's /v1/stats cluster section.
type Stats struct {
	Self    string   `json:"self"`
	Members []string `json:"members"`
	Vnodes  int      `json:"vnodes"`
	// OwnerServed counts requests this node served as ring owner;
	// ForwardedIn requests relayed here by peers; ForwardedOut requests
	// this node relayed away; Failovers forward attempts that moved on to
	// the next ring member; FailoverLocal requests served locally as a
	// stand-in (owner down).
	OwnerServed  uint64 `json:"owner_served"`
	ForwardedIn  uint64 `json:"forwarded_in"`
	ForwardedOut uint64 `json:"forwarded_out"`
	// HTTPFallbacks is always 0: forwards ride corgi-stream only, and the
	// HTTP report fallback it counted is gone. It stays because existing
	// /v1/stats consumers, the corgibench ledger among them, still decode
	// http_fallbacks; dropping it belongs with a benchmark schema change.
	HTTPFallbacks uint64 `json:"http_fallbacks"`
	Failovers     uint64 `json:"failovers"`
	FailoverLocal uint64 `json:"failover_local"`
	// HandoffsSent counts budget handoffs exported onto forwards;
	// PeerFetches / PeerFetchMisses count store snapshot fetch outcomes.
	HandoffsSent    uint64 `json:"handoffs_sent"`
	PeerFetches     uint64 `json:"peer_fetches"`
	PeerFetchMisses uint64 `json:"peer_fetch_misses"`
	// Nodes is each remote member's transport health.
	Nodes map[string]NodeStats `json:"nodes"`
}

// Stats snapshots the router's counters.
func (r *Router) Stats() Stats {
	r.mu.RLock()
	ring := r.ring
	nodes := make(map[string]NodeStats, len(r.peers))
	for name, pn := range r.peers {
		nodes[name] = NodeStats{Healthy: pn.client.Healthy(), Stream: pn.client.Stats()}
	}
	r.mu.RUnlock()
	return Stats{
		Self:            r.self,
		Members:         ring.Members(),
		Vnodes:          ring.Vnodes(),
		OwnerServed:     r.ownerServed.Load(),
		ForwardedIn:     r.forwardedIn.Load(),
		ForwardedOut:    r.forwardedOut.Load(),
		Failovers:       r.failovers.Load(),
		FailoverLocal:   r.failoverLocal.Load(),
		HandoffsSent:    r.handoffsSent.Load(),
		PeerFetches:     r.peerFetches.Load(),
		PeerFetchMisses: r.peerFetchMiss.Load(),
		Nodes:           nodes,
	}
}
