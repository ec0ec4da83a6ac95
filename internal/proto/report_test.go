package proto

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"corgi/internal/budget"
	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/registry"
	"corgi/internal/session"
)

func reportSpecs(names ...string) []registry.Spec {
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

func reportServer(t *testing.T, names ...string) (*httptest.Server, *registry.Registry) {
	t.Helper()
	reg, err := registry.New(reportSpecs(names...), registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewMultiHandler(reg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h.Mux())
	t.Cleanup(srv.Close)
	return srv, reg
}

func TestReportRoundTrip(t *testing.T) {
	srv, _ := reportServer(t, "ra", "rb")
	c := NewClient(srv.URL)
	tree, _, err := c.FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.LevelNodes(0)[0]
	resp, err := c.Report(ReportRequest{
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
}

// TestReportRemoteEqualsLocal is the acceptance property: a seeded remote
// report equals the local-sampling report for the same (region, cell,
// policy, seed). The local side fetches the same forest over the dense v1
// encoding (bit-exact float64 round trip) and draws through an
// internal/session with the same seed.
func TestReportRemoteEqualsLocal(t *testing.T) {
	srv, _ := reportServer(t, "ra")
	const (
		seed  = int64(424242)
		count = 16
	)
	pol := policy.Policy{PrivacyLevel: 2}

	c := NewRegionClient(srv.URL, "ra")
	c.ForceV1 = true // quantization-free so both sides see identical rows
	tree, _, err := c.FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	priors, err := c.FetchPriors(tree)
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.LevelNodes(0)[10]

	// Remote: the server draws from its session.
	remote, err := c.Report(ReportRequest{
		Cell:   [2]int{leaf.Coord.Q, leaf.Coord.R},
		Policy: pol,
		Seed:   seed,
		Count:  count,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Local: fetch the forest, bind the same session shape, draw.
	forest, err := c.FetchForest(tree, pol.PrivacyLevel, 0)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := tree.AncestorAt(leaf, pol.PrivacyLevel)
	sess, err := session.New(session.Config{
		Tree:   tree,
		Entry:  forest.Entries[root],
		Delta:  forest.Delta,
		Policy: pol,
		Priors: priors,
		Seed:   seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	local, err := sess.DrawCellN(leaf, count)
	if err != nil {
		t.Fatal(err)
	}

	if len(remote.Reports) != len(local) {
		t.Fatalf("remote drew %d, local %d", len(remote.Reports), len(local))
	}
	for i := range local {
		if remote.Reports[i].Q != local[i].Coord.Q || remote.Reports[i].R != local[i].Coord.R {
			t.Fatalf("draw %d diverged: remote (%d,%d) vs local %v",
				i, remote.Reports[i].Q, remote.Reports[i].R, local[i])
		}
	}
}

func TestReportBatchPerItemStatuses(t *testing.T) {
	srv, _ := reportServer(t, "ra")
	c := NewClient(srv.URL)
	tree, _, err := c.FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.LevelNodes(0)[0]
	good := ReportRequest{
		Region: "ra",
		Cell:   [2]int{leaf.Coord.Q, leaf.Coord.R},
		Policy: policy.Policy{PrivacyLevel: 1},
	}
	badRegion := good
	badRegion.Region = "nope"
	badPolicy := good
	badPolicy.Policy = policy.Policy{PrivacyLevel: 99}
	badCell := good
	badCell.Cell = [2]int{9999, 9999}

	resp, err := c.ReportBatch([]ReportRequest{good, badRegion, badPolicy, badCell})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{http.StatusOK, http.StatusNotFound,
		http.StatusUnprocessableEntity, http.StatusUnprocessableEntity}
	for i, item := range resp.Items {
		if item.Status != want[i] {
			t.Fatalf("item %d status %d (%s), want %d", i, item.Status, item.Error, want[i])
		}
		if (item.Report != nil) != (item.Status == http.StatusOK) {
			t.Fatalf("item %d payload/status mismatch: %+v", i, item)
		}
	}
}

func TestReportLimitsAndMethods(t *testing.T) {
	srv, reg := reportServer(t, "ra")
	c := NewClient(srv.URL)
	tree, _, err := c.FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.LevelNodes(0)[0]

	// Count beyond the handler cap is a per-request rejection.
	_, err = c.Report(ReportRequest{
		Region: "ra",
		Cell:   [2]int{leaf.Coord.Q, leaf.Coord.R},
		Policy: policy.Policy{PrivacyLevel: 1},
		Count:  DefaultMaxReportCount + 1,
	})
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized count: %v", err)
	}

	// GET is rejected on both routes.
	for _, path := range []string{"/v1/report", "/v1/reports"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s -> %d", path, resp.StatusCode)
		}
	}

	// Oversized batches are rejected whole.
	items := make([]ReportRequest, DefaultMaxBatch+1)
	for i := range items {
		items[i] = ReportRequest{Region: "ra", Cell: [2]int{leaf.Coord.Q, leaf.Coord.R},
			Policy: policy.Policy{PrivacyLevel: 1}}
	}
	if _, err := c.ReportBatch(items); err == nil {
		t.Fatal("oversized batch accepted")
	}

	// Sessions show up in /v1/stats.
	if st := reg.AggregateSessionStats(); st.Created != 0 {
		t.Fatalf("limit probes created sessions: %+v", st)
	}
	if _, err := c.Report(ReportRequest{Region: "ra",
		Cell: [2]int{leaf.Coord.Q, leaf.Coord.R}, Policy: policy.Policy{PrivacyLevel: 1}}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	if !strings.Contains(body, "sessions_total") || !strings.Contains(body, "alias_builds") {
		t.Fatalf("stats missing report-pipeline counters: %s", body)
	}
}

// TestReportTrajectoryRemoteEqualsLocalAcrossReanchor extends the
// remote/local equivalence guarantee to moving users: a seeded session
// replaying the same move sequence — including a subtree crossing that
// re-anchors the server-side session — yields identical draws locally
// (session.New + Rebind) and via /v1/report.
func TestReportTrajectoryRemoteEqualsLocalAcrossReanchor(t *testing.T) {
	srv, _ := reportServer(t, "ra")
	const (
		seed  = int64(1337)
		count = 4
	)
	pol := policy.Policy{PrivacyLevel: 1}

	c := NewRegionClient(srv.URL, "ra")
	c.ForceV1 = true // quantization-free so both sides see identical rows
	tree, _, err := c.FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	priors, err := c.FetchPriors(tree)
	if err != nil {
		t.Fatal(err)
	}
	rootA, rootB := tree.LevelNodes(1)[0], tree.LevelNodes(1)[1]
	leafA := tree.LeavesUnder(rootA)[0]
	leafB := tree.LeavesUnder(rootB)[0]
	moves := []struct {
		leaf      loctree.NodeID
		reanchors bool
	}{
		{leafA, false}, {leafA, false}, {leafB, true}, {leafA, true},
	}

	// Remote: one (uid, seed, policy) stream across the whole trajectory.
	var remote []ReportedLocation
	for i, mv := range moves {
		resp, err := c.Report(ReportRequest{
			Cell:   [2]int{mv.leaf.Coord.Q, mv.leaf.Coord.R},
			UID:    3,
			Policy: pol,
			Seed:   seed,
			Count:  count,
		})
		if err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
		if resp.Reanchored != mv.reanchors {
			t.Fatalf("move %d: reanchored = %v, want %v", i, resp.Reanchored, mv.reanchors)
		}
		remote = append(remote, resp.Reports...)
	}

	// Local: the same forest (delta 0 covers every level-1 subtree), one
	// session re-anchored along the same moves.
	forest, err := c.FetchForest(tree, pol.PrivacyLevel, 0)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := session.New(session.Config{
		Tree: tree, Entry: forest.Entries[rootA], Delta: forest.Delta,
		Policy: pol, Priors: priors, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var local []loctree.NodeID
	current := rootA
	for i, mv := range moves {
		root, _ := tree.AncestorAt(mv.leaf, pol.PrivacyLevel)
		if root != current {
			if err := sess.Rebind(session.Rebind{Entry: forest.Entries[root], Delta: forest.Delta}); err != nil {
				t.Fatalf("move %d rebind: %v", i, err)
			}
			current = root
		}
		draws, err := sess.DrawCellN(mv.leaf, count)
		if err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
		local = append(local, draws...)
	}

	if len(remote) != len(local) {
		t.Fatalf("remote drew %d, local %d", len(remote), len(local))
	}
	for i := range local {
		if remote[i].Q != local[i].Coord.Q || remote[i].R != local[i].Coord.R {
			t.Fatalf("draw %d diverged across re-anchor: remote (%d,%d) vs local %v",
				i, remote[i].Q, remote[i].R, local[i])
		}
	}
}

// TestReportBudget429 drives a budget-capped server over the wire: the
// documented 429 must appear exactly when the sliding-window accountant
// says the user's epsilon window is spent, and the stats route must expose
// the budget counters.
func TestReportBudget429(t *testing.T) {
	specs := reportSpecs("ra")
	eps := 15.0 // registry default epsilon for specs that leave it zero
	reg, err := registry.New(specs, registry.Options{
		Budget: budget.Config{LimitEps: 2 * eps, Window: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewMultiHandler(reg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h.Mux())
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)
	tree, _, err := c.FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.LevelNodes(0)[0]
	req := ReportRequest{
		Region: "ra",
		Cell:   [2]int{leaf.Coord.Q, leaf.Coord.R},
		UID:    21,
		Policy: policy.Policy{PrivacyLevel: 1},
		Seed:   9,
	}
	for i := 0; i < 2; i++ {
		resp, err := c.Report(req)
		if err != nil {
			t.Fatalf("in-budget report %d: %v", i+1, err)
		}
		if !resp.Budgeted || resp.EpsSpent != eps {
			t.Fatalf("budget echo: %+v", resp)
		}
	}
	// Third draw exceeds 2*eps: raw request to pin the exact status code.
	body, _ := json.Marshal(req)
	httpResp, err := http.Post(srv.URL+"/v1/report", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget report -> %d, want 429", httpResp.StatusCode)
	}

	// The batch path classifies per item.
	batch, err := c.ReportBatch([]ReportRequest{req, {Region: "ra",
		Cell: req.Cell, UID: 22, Policy: policy.Policy{PrivacyLevel: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Items[0].Status != http.StatusTooManyRequests {
		t.Fatalf("batch item 0 status %d, want 429", batch.Items[0].Status)
	}
	if batch.Items[1].Status != http.StatusOK {
		t.Fatalf("batch item 1 (different user) status %d, want 200", batch.Items[1].Status)
	}

	// budget_* counters surface in /v1/stats.
	statsResp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats MultiStatsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.BudgetTotal == nil {
		t.Fatal("budget_total missing from /v1/stats")
	}
	if stats.BudgetTotal.Rejections != 2 || stats.BudgetTotal.Charges != 3 {
		t.Fatalf("budget totals: %+v", *stats.BudgetTotal)
	}
	if _, ok := stats.Budget["ra"]; !ok {
		t.Fatal("per-region budget stats missing")
	}
}

// TestPublicRoutesIgnorePeerFields sends the cluster-only fields a peer
// forward once carried in JSON — "forwarded" and a budget handoff that
// refunds 1000 epsilon — to the public report and lease routes of a server
// whose cap is one draw. The routes decode client fields only, so every
// request is an ordinary budget-checked one: the user gets 429 from the
// second draw on and no handoff is imported.
func TestPublicRoutesIgnorePeerFields(t *testing.T) {
	const eps = 15.0 // registry default epsilon for specs that leave it zero
	const attempts = 21
	for _, route := range []string{"report", "lease"} {
		t.Run(route, func(t *testing.T) {
			reg, err := registry.New(reportSpecs("ra"), registry.Options{
				Budget: budget.Config{LimitEps: eps, Window: time.Hour},
			})
			if err != nil {
				t.Fatal(err)
			}
			h, err := NewMultiHandler(reg)
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(h.Mux())
			t.Cleanup(srv.Close)
			tree, _, err := NewClient(srv.URL).FetchTree()
			if err != nil {
				t.Fatal(err)
			}
			leaf := tree.LevelNodes(0)[0]
			body := fmt.Sprintf(`{"region":"ra","cell":[%d,%d],"uid":7,"privacy_l":1,"seed":3,"draws":1,`+
				`"forwarded":true,"budget_handoff":{"source":"forged","seq":1,"events":[{"at":%d,"eps":-1000}]}}`,
				leaf.Coord.Q, leaf.Coord.R, time.Now().UnixNano())
			granted := 0
			for i := 0; i < attempts; i++ {
				resp, err := http.Post(srv.URL+"/v1/"+route, "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					granted++
				case http.StatusTooManyRequests:
				default:
					t.Fatalf("attempt %d: status %d", i+1, resp.StatusCode)
				}
			}
			if granted != 1 {
				t.Errorf("granted %d of %d requests against a one-draw cap, want 1", granted, attempts)
			}
			if st := reg.AggregateBudgetStats(); st.HandoffsImported != 0 || st.Rejections != attempts-1 {
				t.Errorf("budget stats: %d handoffs imported, %d rejections; want 0 and %d",
					st.HandoffsImported, st.Rejections, attempts-1)
			}
		})
	}
}
