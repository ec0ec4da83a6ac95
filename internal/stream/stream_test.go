// End-to-end transport tests. This is an external test package so it can
// drive both wires against live servers: internal/proto imports
// internal/stream (for /v1/stats), so comparing the two transports from
// inside package stream would be an import cycle.
package stream_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"corgi/internal/budget"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/proto"
	"corgi/internal/registry"
	"corgi/internal/stream"
)

func streamSpecs(names ...string) []registry.Spec {
	specs := make([]registry.Spec, len(names))
	for i, name := range names {
		specs[i] = registry.Spec{
			Name:      name,
			CenterLat: 37.765 + float64(i),
			CenterLng: -122.435,
			Height:    2, Iterations: 1, Targets: 3,
			UniformPriors: true,
		}
	}
	return specs
}

func newRegistry(t *testing.T, opts registry.Options, names ...string) *registry.Registry {
	t.Helper()
	reg, err := registry.New(streamSpecs(names...), opts)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// startStream serves a stream server for reg on a loopback port.
func startStream(t *testing.T, reg *registry.Registry, cfg stream.Config) (*stream.Server, string) {
	t.Helper()
	srv, err := stream.NewServer(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return srv, lis.Addr().String()
}

func leaves(t *testing.T, reg *registry.Registry, region string) (*loctree.Tree, []loctree.NodeID) {
	t.Helper()
	sh, err := reg.Shard(context.Background(), region)
	if err != nil {
		t.Fatal(err)
	}
	tree := sh.Server.Tree()
	return tree, tree.LevelNodes(0)
}

func TestStreamReportRoundTrip(t *testing.T) {
	reg := newRegistry(t, registry.Options{}, "ra", "rb")
	srv, addr := startStream(t, reg, stream.Config{})
	_, leafNodes := leaves(t, reg, "ra")
	leaf := leafNodes[0]

	c := stream.NewClient(addr, stream.ClientConfig{Timeout: 10 * time.Second})
	defer c.Close()
	resp, err := c.Report(stream.Request{
		Region: "ra",
		Cell:   [2]int{leaf.Coord.Q, leaf.Coord.R},
		Policy: policy.Policy{PrivacyLevel: 1},
		Seed:   7,
		Count:  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Region != "ra" || len(resp.Reports) != 5 || resp.PrecisionLevel != 0 {
		t.Fatalf("response: %+v", resp)
	}
	for _, rep := range resp.Reports {
		if rep.Lat == 0 && rep.Lng == 0 {
			t.Fatalf("report without a center: %+v", rep)
		}
	}

	// The unnamed region aliases the default, matching the HTTP routes.
	if resp, err = c.Report(stream.Request{
		Cell: [2]int{leaf.Coord.Q, leaf.Coord.R}, Policy: policy.Policy{PrivacyLevel: 1},
	}); err != nil || resp.Region != "ra" {
		t.Fatalf("default region: %+v, %v", resp, err)
	}

	st := srv.Stats()
	if st.Handshakes != 1 || st.Reports != 2 || st.ConnsTotal != 1 {
		t.Fatalf("server stats: %+v", st)
	}
}

// TestStreamTrajectoryEquivalence is the cross-transport acceptance
// property: the same seeded trajectory — including a re-anchoring subtree
// crossing — drawn in-process, over HTTP+JSON, and over the stream yields
// the identical (q, r) draw sequence, with stream centers matching to the
// 32-bit fixed-point quantization (~5 mm).
func TestStreamTrajectoryEquivalence(t *testing.T) {
	const (
		seed  = int64(1337)
		uid   = int64(3)
		count = 4
	)
	pol := policy.Policy{PrivacyLevel: 1}

	type draw struct {
		q, r     int
		lat, lng float64
	}

	// Each transport gets its own fresh registry: sessions are stateful,
	// so sharing one registry would continue a single RNG stream across
	// transports instead of replaying it three times.
	movesOf := func(reg *registry.Registry) []loctree.NodeID {
		tree, _ := leaves(t, reg, "ra")
		leafA := tree.LeavesUnder(tree.LevelNodes(1)[0])[0]
		leafB := tree.LeavesUnder(tree.LevelNodes(1)[1])[0]
		return []loctree.NodeID{leafA, leafA, leafB, leafA}
	}

	// In-process: the registry pipeline directly.
	var inproc []draw
	{
		reg := newRegistry(t, registry.Options{}, "ra")
		for i, leaf := range movesOf(reg) {
			res, err := reg.Report(context.Background(), registry.ReportRequest{
				Region: "ra", Cell: leaf.Coord, UID: uid,
				Policy: pol, Seed: seed, Count: count,
			})
			if err != nil {
				t.Fatalf("in-proc move %d: %v", i, err)
			}
			for j, n := range res.Reports {
				c := res.Centers[j]
				inproc = append(inproc, draw{n.Coord.Q, n.Coord.R, c.Lat, c.Lng})
			}
		}
	}

	// HTTP+JSON: POST /v1/report.
	var overHTTP []draw
	{
		reg := newRegistry(t, registry.Options{}, "ra")
		h, err := proto.NewMultiHandler(reg)
		if err != nil {
			t.Fatal(err)
		}
		hsrv := httptest.NewServer(h.Mux())
		t.Cleanup(hsrv.Close)
		c := proto.NewRegionClient(hsrv.URL, "ra")
		for i, leaf := range movesOf(reg) {
			resp, err := c.Report(proto.ReportRequest{
				Cell: [2]int{leaf.Coord.Q, leaf.Coord.R}, UID: uid,
				Policy: pol, Seed: seed, Count: count,
			})
			if err != nil {
				t.Fatalf("http move %d: %v", i, err)
			}
			for _, rep := range resp.Reports {
				overHTTP = append(overHTTP, draw{rep.Q, rep.R, rep.Lat, rep.Lng})
			}
		}
	}

	// Stream: REPORT frames on one persistent connection.
	var overStream []draw
	{
		reg := newRegistry(t, registry.Options{}, "ra")
		_, addr := startStream(t, reg, stream.Config{})
		c := stream.NewClient(addr, stream.ClientConfig{Timeout: 10 * time.Second, Region: "ra"})
		defer c.Close()
		for i, leaf := range movesOf(reg) {
			resp, err := c.Report(stream.Request{
				Cell: [2]int{leaf.Coord.Q, leaf.Coord.R}, UID: uid,
				Policy: pol, Seed: seed, Count: count,
			})
			if err != nil {
				t.Fatalf("stream move %d: %v", i, err)
			}
			wantReanchor := i == 2 || i == 3
			if resp.Reanchored != wantReanchor {
				t.Fatalf("stream move %d: reanchored = %v, want %v", i, resp.Reanchored, wantReanchor)
			}
			for _, rep := range resp.Reports {
				overStream = append(overStream, draw{rep.Q, rep.R, rep.Lat, rep.Lng})
			}
		}
	}

	if len(inproc) != len(overHTTP) || len(inproc) != len(overStream) {
		t.Fatalf("draw counts: in-proc %d, http %d, stream %d",
			len(inproc), len(overHTTP), len(overStream))
	}
	for i := range inproc {
		if overHTTP[i] != inproc[i] {
			// JSON carries float64 exactly; any difference is a real bug.
			t.Fatalf("draw %d: http %+v != in-proc %+v", i, overHTTP[i], inproc[i])
		}
		if overStream[i].q != inproc[i].q || overStream[i].r != inproc[i].r {
			t.Fatalf("draw %d: stream cell (%d,%d) != in-proc (%d,%d)",
				i, overStream[i].q, overStream[i].r, inproc[i].q, inproc[i].r)
		}
		if math.Abs(overStream[i].lat-inproc[i].lat) > 1e-6 ||
			math.Abs(overStream[i].lng-inproc[i].lng) > 1e-6 {
			t.Fatalf("draw %d: stream center (%v,%v) vs in-proc (%v,%v)",
				i, overStream[i].lat, overStream[i].lng, inproc[i].lat, inproc[i].lng)
		}
	}
}

// TestStreamBatchPartialFailureMatchesHTTP sends one REPORTS frame mixing
// a budget-exhausted user, an unknown region, a malformed cell, and a
// valid item, and requires per-item statuses, messages, and payload
// presence to match the HTTP batch route on an identically prepared
// server exactly.
func TestStreamBatchPartialFailureMatchesHTTP(t *testing.T) {
	const eps = 15.0 // registry default epsilon for specs that leave it zero
	budgeted := registry.Options{Budget: budget.Config{LimitEps: 2 * eps, Window: time.Hour}}

	// Two identically configured registries, identically primed: uid 21
	// spends its whole window, so its batch item must answer 429.
	prime := func(reg *registry.Registry, leaf loctree.NodeID) {
		t.Helper()
		for i := 0; i < 2; i++ {
			if _, err := reg.Report(context.Background(), registry.ReportRequest{
				Region: "ra", Cell: leaf.Coord, UID: 21,
				Policy: policy.Policy{PrivacyLevel: 1}, Seed: 9, Count: 1,
			}); err != nil {
				t.Fatalf("prime %d: %v", i, err)
			}
		}
	}
	type item struct {
		region string
		cell   [2]int
		uid    int64
	}
	itemsOf := func(leaf loctree.NodeID) []item {
		good := [2]int{leaf.Coord.Q, leaf.Coord.R}
		return []item{
			{"ra", good, 21},              // budget exhausted  -> 429
			{"nowhere", good, 7},          // unknown region    -> 404
			{"ra", [2]int{9999, 9999}, 7}, // cell outside tree -> 422
			{"ra", good, 22},              // valid             -> 200
		}
	}

	regHTTP := newRegistry(t, budgeted, "ra")
	_, leafNodes := leaves(t, regHTTP, "ra")
	leaf := leafNodes[0]
	prime(regHTTP, leaf)
	h, err := proto.NewMultiHandler(regHTTP)
	if err != nil {
		t.Fatal(err)
	}
	hsrv := httptest.NewServer(h.Mux())
	t.Cleanup(hsrv.Close)
	hc := proto.NewClient(hsrv.URL)
	httpItems := make([]proto.ReportRequest, 0, 4)
	for _, it := range itemsOf(leaf) {
		httpItems = append(httpItems, proto.ReportRequest{
			Region: it.region, Cell: it.cell, UID: it.uid,
			Policy: policy.Policy{PrivacyLevel: 1}, Seed: 9, Count: 1,
		})
	}
	httpResp, err := hc.ReportBatch(httpItems)
	if err != nil {
		t.Fatal(err)
	}

	regStream := newRegistry(t, budgeted, "ra")
	prime(regStream, leaf)
	_, addr := startStream(t, regStream, stream.Config{})
	sc := stream.NewClient(addr, stream.ClientConfig{Timeout: 10 * time.Second})
	defer sc.Close()
	streamItems := make([]stream.Request, 0, 4)
	for _, it := range itemsOf(leaf) {
		streamItems = append(streamItems, stream.Request{
			Region: it.region, Cell: it.cell, UID: it.uid,
			Policy: policy.Policy{PrivacyLevel: 1}, Seed: 9, Count: 1,
		})
	}
	streamResp, err := sc.ReportBatch(streamItems)
	if err != nil {
		t.Fatal(err)
	}

	wantStatus := []int{429, 404, 422, 200}
	if len(httpResp.Items) != 4 || len(streamResp) != 4 {
		t.Fatalf("item counts: http %d, stream %d", len(httpResp.Items), len(streamResp))
	}
	for i := range wantStatus {
		hi, si := httpResp.Items[i], streamResp[i]
		if hi.Status != wantStatus[i] || si.Status != wantStatus[i] {
			t.Fatalf("item %d: http %d, stream %d, want %d", i, hi.Status, si.Status, wantStatus[i])
		}
		if hi.Error != si.Error {
			t.Fatalf("item %d message diverged: http %q, stream %q", i, hi.Error, si.Error)
		}
		if (hi.Report != nil) != (si.Report != nil) {
			t.Fatalf("item %d payload presence diverged", i)
		}
	}
	// The stream's 429 item additionally carries the user's live headroom,
	// which an exhausted window pins to zero.
	if !streamResp[0].HasEpsRemaining || streamResp[0].EpsRemaining != 0 {
		t.Fatalf("429 item headroom: %+v", streamResp[0])
	}
	// The valid item's draw matches across transports (same seed, fresh
	// identically-primed registries).
	hr, sr := httpResp.Items[3].Report, streamResp[3].Report
	if hr.Reports[0].Q != sr.Reports[0].Q || hr.Reports[0].R != sr.Reports[0].R {
		t.Fatalf("valid item draws diverged: http %+v, stream %+v", hr.Reports[0], sr.Reports[0])
	}

	// A single REPORT for the exhausted user mirrors the batch item as a
	// *StatusError with the same classification.
	_, err = sc.Report(streamItems[0])
	var se *stream.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusTooManyRequests || !se.HasEpsRemaining {
		t.Fatalf("single over-budget report: %v", err)
	}
}

// TestStreamMidShutdownReconnect drains a server mid-session: the pooled
// client connection dies cleanly, requests fail while nothing listens,
// and once a new server (same registry, same address) comes up the client
// reconnects on its own — with the user's draw sequence continuing as if
// the connection had never dropped.
func TestStreamMidShutdownReconnect(t *testing.T) {
	reg := newRegistry(t, registry.Options{}, "ra")
	_, leafNodes := leaves(t, reg, "ra")
	leaf := leafNodes[0]
	req := stream.Request{
		Region: "ra", Cell: [2]int{leaf.Coord.Q, leaf.Coord.R}, UID: 9,
		Policy: policy.Policy{PrivacyLevel: 1}, Seed: 11, Count: 2,
	}

	srv1, err := stream.NewServer(reg, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	go srv1.Serve(lis)

	c := stream.NewClient(addr, stream.ClientConfig{
		Timeout: 10 * time.Second, DialTimeout: 2 * time.Second,
	})
	defer c.Close()
	first, err := c.Report(req)
	if err != nil {
		t.Fatal(err)
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv1.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Nothing listens: the pooled connection fails, the retry dial is
	// refused, and the error surfaces cleanly (no hang, no StatusError).
	_, err = c.Report(req)
	if err == nil {
		t.Fatal("report succeeded against a drained server")
	}
	var se *stream.StatusError
	if errors.As(err, &se) {
		t.Fatalf("transport fault misclassified as application error: %v", err)
	}

	// Same address, same registry: the next request dials fresh and the
	// session stream continues.
	srv2, err := stream.NewServer(reg, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lis2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(lis2)
	t.Cleanup(func() { srv2.Close() })

	second, err := c.Report(req)
	if err != nil {
		t.Fatalf("report after server replacement: %v", err)
	}
	if st := c.Stats(); st.Retries < 1 || st.Dials < 2 {
		t.Fatalf("client stats after reconnect: %+v", st)
	}

	// The uninterrupted sequence: a fresh registry drawn twice in-process
	// must equal first+second — the reconnect never perturbed the RNG.
	ref := newRegistry(t, registry.Options{}, "ra")
	var want []stream.ReportedLocation
	for i := 0; i < 2; i++ {
		res, err := ref.Report(context.Background(), registry.ReportRequest{
			Region: "ra", Cell: hexgrid.Coord{Q: req.Cell[0], R: req.Cell[1]}, UID: 9,
			Policy: req.Policy, Seed: 11, Count: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range res.Reports {
			want = append(want, stream.ReportedLocation{Q: n.Coord.Q, R: n.Coord.R})
		}
	}
	got := append(append([]stream.ReportedLocation(nil), first.Reports...), second.Reports...)
	if len(got) != len(want) {
		t.Fatalf("drew %d reports, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Q != want[i].Q || got[i].R != want[i].R {
			t.Fatalf("draw %d diverged across reconnect: (%d,%d) want (%d,%d)",
				i, got[i].Q, got[i].R, want[i].Q, want[i].R)
		}
	}
}

// TestStreamConcurrentSharedRegistry stresses one registry under
// concurrent stream connections and HTTP requests at once — re-anchoring
// mobility, batches, and distinct-plus-shared user sessions — and then
// checks the stream counters merged into GET /v1/stats. The CI race job
// runs this under -race.
func TestStreamConcurrentSharedRegistry(t *testing.T) {
	reg := newRegistry(t, registry.Options{}, "ra", "rb")
	streamSrv, addr := startStream(t, reg, stream.Config{})
	h, err := proto.NewMultiHandler(reg)
	if err != nil {
		t.Fatal(err)
	}
	h.Stream = streamSrv
	hsrv := httptest.NewServer(h.Mux())
	t.Cleanup(hsrv.Close)

	treeA, _ := leaves(t, reg, "ra")
	leafA := treeA.LeavesUnder(treeA.LevelNodes(1)[0])[0]
	leafB := treeA.LeavesUnder(treeA.LevelNodes(1)[1])[0]

	const (
		goroutines = 8
		iters      = 25
	)
	sc := stream.NewClient(addr, stream.ClientConfig{Timeout: 30 * time.Second})
	defer sc.Close()
	hc := proto.NewClient(hsrv.URL)

	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Goroutines 0 and 1 share uid 100 (one session, serialized
			// draws); the rest get their own. Half the pool speaks HTTP so
			// both transports hammer the same sessions and engines.
			uid := int64(100)
			if g > 1 {
				uid = int64(g)
			}
			region := []string{"ra", "rb"}[g%2]
			for i := 0; i < iters; i++ {
				leaf := leafA
				if i%3 == 2 {
					leaf = leafB // subtree crossing: session re-anchor
				}
				cell := [2]int{leaf.Coord.Q, leaf.Coord.R}
				pol := policy.Policy{PrivacyLevel: 1}
				var err error
				switch {
				case g%2 == 1:
					_, err = hc.Report(proto.ReportRequest{
						Region: region, Cell: cell, UID: uid, Policy: pol, Seed: 3, Count: 2,
					})
				case i%5 == 4:
					_, err = sc.ReportBatch([]stream.Request{
						{Region: region, Cell: cell, UID: uid, Policy: pol, Seed: 3, Count: 2},
						{Region: region, Cell: cell, UID: uid + 1000, Policy: pol, Seed: 4, Count: 1},
					})
				default:
					_, err = sc.Report(stream.Request{
						Region: region, Cell: cell, UID: uid, Policy: pol, Seed: 3, Count: 2,
					})
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Stream counters surface through the shared stats route.
	resp, err := http.Get(hsrv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats proto.MultiStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Stream == nil {
		t.Fatal("stream block missing from /v1/stats")
	}
	if stats.Stream.Reports == 0 || stats.Stream.Handshakes == 0 || stats.Stream.Batches == 0 {
		t.Fatalf("stream stats: %+v", *stats.Stream)
	}
}

// TestStreamForgedHandoffStill429 sends REPORT frames that carry the
// cluster trailer — Forwarded plus a handoff refunding 1000 epsilon — for
// a user already at a one-draw cap. The frame is still an unauthenticated
// ingress, so the accountant must refuse the handoff itself: every frame
// answers 429 and no handoff is imported.
func TestStreamForgedHandoffStill429(t *testing.T) {
	const eps = 15.0 // registry default epsilon for specs that leave it zero
	reg := newRegistry(t, registry.Options{Budget: budget.Config{LimitEps: eps, Window: time.Hour}}, "ra")
	_, leafNodes := leaves(t, reg, "ra")
	leaf := leafNodes[0]
	_, addr := startStream(t, reg, stream.Config{})
	c := stream.NewClient(addr, stream.ClientConfig{Timeout: 10 * time.Second})
	defer c.Close()
	req := stream.Request{
		Region: "ra", Cell: [2]int{leaf.Coord.Q, leaf.Coord.R}, UID: 7,
		Policy: policy.Policy{PrivacyLevel: 1}, Seed: 3,
	}
	if _, err := c.Report(req); err != nil {
		t.Fatalf("in-budget report: %v", err)
	}
	req.Forwarded = true
	const forged = 5
	for i := 0; i < forged; i++ {
		req.Handoff = &budget.Handoff{Source: "forged", Seq: uint64(i + 1), Events: []budget.HandoffEvent{
			{AtUnixNano: time.Now().UnixNano(), Eps: -1000},
		}}
		_, err := c.Report(req)
		var se *stream.StatusError
		if !errors.As(err, &se) || se.Status != http.StatusTooManyRequests {
			t.Fatalf("forged-handoff report %d: %v, want 429", i+1, err)
		}
	}
	st := reg.AggregateBudgetStats()
	if st.HandoffsImported != 0 || st.HandoffsRejected != forged || st.Rejections != forged {
		t.Fatalf("budget stats: %+v", st)
	}
}
