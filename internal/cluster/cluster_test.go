// Three-node in-process cluster tests: forwarding, budget handoff on
// rebalance, and failover with recovery. External test package so it can
// assemble the same stack cmd/corgi-server wires (registry + stream
// server + router) without cluster importing its own consumers.
package cluster_test

import (
	"context"
	"net"
	"testing"
	"time"

	"corgi/internal/budget"
	"corgi/internal/cluster"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/registry"
	"corgi/internal/stream"
)

const testRegion = "ra"

func clusterSpec() []registry.Spec {
	return []registry.Spec{{
		Name:      testRegion,
		CenterLat: 37.765, CenterLng: -122.435,
		Height: 2, Iterations: 1, Targets: 3,
		UniformPriors: true,
	}}
}

// testNode is one in-process cluster member: its own registry (sessions,
// budget), stream server, and embedded router — exactly what one
// corgi-server process runs in cluster mode.
type testNode struct {
	name   string
	reg    *registry.Registry
	srv    *stream.Server
	router *cluster.Router
}

// shard returns the node's region shard (budget accountant lives on it).
func (n *testNode) shard(t *testing.T) *registry.Shard {
	t.Helper()
	sh, err := n.reg.Shard(context.Background(), testRegion)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// startCluster brings up n nodes. Listeners come first: their addresses
// are the ring member names, and every node gets the identical peer list
// — the same bootstrap order cmd/corgi-server follows with -cluster-peers.
func startCluster(t *testing.T, n int, opts registry.Options) []*testNode {
	t.Helper()
	return startClusterWith(t, n, func(int) registry.Options { return opts })
}

// startClusterWith is startCluster with per-node registry options, for
// nodes that differ (say, in their budget clocks).
func startClusterWith(t *testing.T, n int, opts func(i int) registry.Options) []*testNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	peers := make([]cluster.Peer, n)
	for i := range listeners {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = lis
		addr := lis.Addr().String()
		peers[i] = cluster.Peer{Name: addr, StreamAddr: addr}
	}
	nodes := make([]*testNode, n)
	for i := range nodes {
		reg, err := registry.New(clusterSpec(), opts(i))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := stream.NewServer(reg, stream.Config{})
		if err != nil {
			t.Fatal(err)
		}
		router, err := cluster.NewRouter(reg, peers[i].Name, peers, cluster.RouterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		srv.SetHandler(router)
		go srv.Serve(listeners[i])
		node := &testNode{name: peers[i].Name, reg: reg, srv: srv, router: router}
		t.Cleanup(func() { node.srv.Close(); node.router.Close() })
		nodes[i] = node
	}
	return nodes
}

// uidOwnedBy finds a uid the ring assigns to want, starting from seed.
func uidOwnedBy(t *testing.T, ring *cluster.Ring, want string, seed int64) int64 {
	t.Helper()
	for uid := seed; uid < seed+10000; uid++ {
		if ring.Owner(uid) == want {
			return uid
		}
	}
	t.Fatalf("no uid owned by %s in 10000 tries", want)
	return 0
}

func reportReq(t *testing.T, n *testNode, uid int64) registry.ReportRequest {
	t.Helper()
	tree := n.shard(t).Server.Tree()
	leaf := tree.LevelNodes(0)[0]
	return registry.ReportRequest{
		Region: testRegion,
		Cell:   hexgrid.Coord{Q: leaf.Coord.Q, R: leaf.Coord.R},
		UID:    uid,
		Policy: policy.Policy{PrivacyLevel: 1},
		Seed:   17,
		Count:  2,
	}
}

// TestClusterForwarding: a request entering at a non-owner node is
// forwarded one hop and served by the owner, with the counters attributing
// it correctly on both sides — and the draws are identical to what a
// single-node deployment would have produced for the same session.
func TestClusterForwarding(t *testing.T) {
	nodes := startCluster(t, 3, registry.Options{})
	ring := nodes[0].router.Ring()

	// A uid owned by node 1, entering at node 0.
	uid := uidOwnedBy(t, ring, nodes[1].name, 100)
	req := reportReq(t, nodes[0], uid)
	res, err := nodes[0].router.Report(context.Background(), req)
	if err != nil {
		t.Fatalf("forwarded report: %v", err)
	}
	gotReports := append([]loctree.NodeID(nil), res.Reports...)

	s0, s1 := nodes[0].router.Stats(), nodes[1].router.Stats()
	if s0.ForwardedOut != 1 || s0.OwnerServed != 0 {
		t.Fatalf("entry node stats: %+v", s0)
	}
	if s1.ForwardedIn != 1 {
		t.Fatalf("owner node stats: %+v", s1)
	}
	if s0.HTTPFallbacks != 0 {
		t.Fatalf("stream forward took the HTTP fallback: %+v", s0)
	}

	// The same session served by a standalone registry draws identically:
	// routing must not perturb the paper's deterministic replay property.
	ref, err := registry.New(clusterSpec(), registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Report(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Reports) != len(gotReports) {
		t.Fatalf("draw count %d vs single-node %d", len(gotReports), len(want.Reports))
	}
	for i := range want.Reports {
		if want.Reports[i] != gotReports[i] {
			t.Fatalf("draw %d: forwarded %v, single-node %v", i, gotReports[i], want.Reports[i])
		}
	}

	// Entering at the owner serves locally, no forward.
	if _, err := nodes[1].router.Report(context.Background(), reportReq(t, nodes[1], uid)); err != nil {
		t.Fatal(err)
	}
	if s1 := nodes[1].router.Stats(); s1.OwnerServed != 1 {
		t.Fatalf("owner-entry stats: %+v", s1)
	}
}

// TestClusterHandoffExactlyOnce is the rebalance contract (satellite:
// ring rebalance + budget): when ownership of a user moves, the first
// forwarded report carries the old owner's live spend exactly once — the
// new owner counts it (no reset), duplicates dedupe (no double charge),
// and subsequent forwards carry nothing.
func TestClusterHandoffExactlyOnce(t *testing.T) {
	opts := registry.Options{Budget: budget.Config{LimitEps: 1000, Window: time.Hour}}
	nodes := startCluster(t, 3, opts)
	fullRing := nodes[0].router.Ring()
	allPeers := make([]cluster.Peer, len(nodes))
	for i, n := range nodes {
		allPeers[i] = cluster.Peer{Name: n.name, StreamAddr: n.name}
	}

	// A uid the full ring assigns to node 1.
	uid := uidOwnedBy(t, fullRing, nodes[1].name, 500)

	// Shrink node 0's view to itself — the "before" topology in which
	// node 0 owns everyone — and let the user spend there.
	if err := nodes[0].router.SetMembers([]cluster.Peer{{Name: nodes[0].name, StreamAddr: nodes[0].name}}); err != nil {
		t.Fatal(err)
	}
	res, err := nodes[0].router.Report(context.Background(), reportReq(t, nodes[0], uid))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Budgeted || res.EpsSpent <= 0 {
		t.Fatalf("pre-move report not budgeted: %+v", res)
	}
	preSpend := nodes[0].shard(t).Budget.Spent(uid)
	if preSpend <= 0 {
		t.Fatal("no spend recorded before the move")
	}

	// Rebalance: node 0 learns the full membership; the uid's owner is
	// now node 1.
	if err := nodes[0].router.SetMembers(allPeers); err != nil {
		t.Fatal(err)
	}

	// First post-move report through node 0: forwarded with the handoff.
	res2, err := nodes[0].router.Report(context.Background(), reportReq(t, nodes[0], uid))
	if err != nil {
		t.Fatalf("post-move report: %v", err)
	}
	spent2 := res2.EpsSpent

	b0, b1 := nodes[0].shard(t).Budget, nodes[1].shard(t).Budget
	if wm := b1.HandoffsApplied(uid, nodes[0].name); wm != 1 {
		t.Fatalf("handoff applied %d times, want exactly 1", wm)
	}
	// No reset: the new owner counts old spend + its own charge.
	if got, want := b1.Spent(uid), preSpend+spent2; got != want {
		t.Fatalf("new owner counts %v, want %v (handoff %v + fresh %v)", got, want, preSpend, spent2)
	}
	// No double charge: the old owner's window is empty after the commit.
	if got := b0.Spent(uid); got != 0 {
		t.Fatalf("old owner still counts %v after handoff commit", got)
	}
	if s0 := nodes[0].router.Stats(); s0.HandoffsSent != 1 {
		t.Fatalf("handoffs sent %d, want 1", s0.HandoffsSent)
	}

	// Second post-move report: nothing left to hand off; the watermark
	// must not advance and the spend grows only by the new charge.
	res3, err := nodes[0].router.Report(context.Background(), reportReq(t, nodes[0], uid))
	if err != nil {
		t.Fatal(err)
	}
	if wm := b1.HandoffsApplied(uid, nodes[0].name); wm != 1 {
		t.Fatalf("second forward re-applied a handoff: watermark %d", wm)
	}
	if got, want := b1.Spent(uid), preSpend+spent2+res3.EpsSpent; got != want {
		t.Fatalf("spend after second forward %v, want %v", got, want)
	}
	if st := b1.Stats(); st.HandoffsImported != 1 {
		t.Fatalf("owner imported %d handoffs, want 1", st.HandoffsImported)
	}
}

// TestClusterHandoffSkewedClocks: the new owner's clock runs 5 ms behind
// the old owner's, and the old owner charged in the first ms of a budget
// bucket, so the handed-off event is stamped more than one Resolution
// ahead of the new owner's clock. The forward commits the export, so the
// new owner must still count the handed-off spend or it is lost on both
// nodes.
func TestClusterHandoffSkewedClocks(t *testing.T) {
	bucket := time.Unix(1_700_000_000, 0)
	clocks := []time.Time{bucket.Add(time.Millisecond), bucket.Add(-4 * time.Millisecond)}
	nodes := startClusterWith(t, 2, func(i int) registry.Options {
		now := clocks[i]
		return registry.Options{Budget: budget.Config{
			LimitEps: 1000, Window: time.Hour, Now: func() time.Time { return now },
		}}
	})
	uid := uidOwnedBy(t, nodes[0].router.Ring(), nodes[1].name, 500)
	allPeers := []cluster.Peer{
		{Name: nodes[0].name, StreamAddr: nodes[0].name},
		{Name: nodes[1].name, StreamAddr: nodes[1].name},
	}

	// Before the move node 0 owns everyone; the user spends there.
	if err := nodes[0].router.SetMembers(allPeers[:1]); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].router.Report(context.Background(), reportReq(t, nodes[0], uid)); err != nil {
		t.Fatal(err)
	}
	preSpend := nodes[0].shard(t).Budget.Spent(uid)
	if preSpend <= 0 {
		t.Fatal("no spend recorded before the move")
	}

	if err := nodes[0].router.SetMembers(allPeers); err != nil {
		t.Fatal(err)
	}
	res, err := nodes[0].router.Report(context.Background(), reportReq(t, nodes[0], uid))
	if err != nil {
		t.Fatalf("post-move report: %v", err)
	}
	if s0 := nodes[0].router.Stats(); s0.HandoffsSent != 1 || s0.ForwardedOut != 1 {
		t.Fatalf("post-move report not forwarded with a handoff: %+v", s0)
	}
	b0, b1 := nodes[0].shard(t).Budget, nodes[1].shard(t).Budget
	if got := b0.Spent(uid); got != 0 {
		t.Fatalf("old owner still counts %v after handoff commit", got)
	}
	if got, want := b1.Spent(uid), preSpend+res.EpsSpent; got != want {
		t.Fatalf("new owner counts %v, want %v (handoff %v + fresh %v)", got, want, preSpend, res.EpsSpent)
	}
	if st := b1.Stats(); st.HandoffsImported != 1 || st.HandoffsRejected != 0 {
		t.Fatalf("new owner budget stats: %+v", st)
	}
}

// TestClusterFailoverAndRecovery: with the owner down, requests fail over
// along the ring sequence and keep being served; when the owner comes
// back (same address), traffic returns to it — the reconnect-backoff
// probe is what rediscovers it.
func TestClusterFailoverAndRecovery(t *testing.T) {
	nodes := startCluster(t, 3, registry.Options{})
	ring := nodes[0].router.Ring()
	uid := uidOwnedBy(t, ring, nodes[1].name, 900)

	// Kill the owner.
	if err := nodes[1].srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Requests entering at node 0 still succeed, attributed to failover.
	for i := 0; i < 3; i++ {
		if _, err := nodes[0].router.Report(context.Background(), reportReq(t, nodes[0], uid)); err != nil {
			t.Fatalf("report %d with owner down: %v", i, err)
		}
	}
	s0 := nodes[0].router.Stats()
	if s0.Failovers+s0.FailoverLocal < 3 {
		t.Fatalf("failover not attributed: %+v", s0)
	}
	if s0.Nodes[nodes[1].name].Healthy {
		t.Fatalf("dead owner still marked healthy: %+v", s0.Nodes[nodes[1].name])
	}

	// Revive the owner on its old address with a fresh stream server over
	// the same registry and router.
	lis, err := net.Listen("tcp", nodes[1].name)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", nodes[1].name, err)
	}
	srv2, err := stream.NewServer(nodes[1].reg, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv2.SetHandler(nodes[1].router)
	go srv2.Serve(lis)
	t.Cleanup(func() { srv2.Close() })

	// Traffic returns once node 0's breaker probes the recovered node:
	// the owner's forwarded-in counter starts moving again.
	before := nodes[1].router.Stats().ForwardedIn
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := nodes[0].router.Report(context.Background(), reportReq(t, nodes[0], uid)); err != nil {
			t.Fatalf("report during recovery: %v", err)
		}
		if nodes[1].router.Stats().ForwardedIn > before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("traffic never returned to the recovered owner: %+v", nodes[0].router.Stats())
		}
		time.Sleep(100 * time.Millisecond)
	}
}
