package proto

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"corgi/internal/core"
	"corgi/internal/geo"
	"corgi/internal/policy"
	"corgi/internal/registry"
)

// sfSpec is the San Francisco region the handler tests serve: a tree of
// the given height (2 -> 49 leaves) solved with the given number of
// Algorithm-1 iterations, three targets, uniform priors.
func sfSpec(height, iters int) registry.Spec {
	c := geo.SanFrancisco.Center()
	return registry.Spec{
		Name: "sf", CenterLat: c.Lat, CenterLng: c.Lng,
		Height: height, Iterations: iters, Targets: 3, UniformPriors: true,
	}
}

// newTestServer serves the sfSpec region of the given height and
// iteration count through a MultiHandler and returns the handler and the
// bootstrapped shard. Warmup is off, so the engine counters count only
// what the test requests.
func newTestServer(t *testing.T, height, iters int, opts registry.Options) (*httptest.Server, *MultiHandler, *registry.Shard) {
	t.Helper()
	opts.WarmupDelta = -1
	reg, err := registry.New([]registry.Spec{sfSpec(height, iters)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := reg.Shard(context.Background(), "sf")
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewMultiHandler(reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h.Mux())
	t.Cleanup(ts.Close)
	return ts, h, sh
}

func TestFullClientServerRoundTrip(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, 2, registry.Options{})
	c := NewClient(ts.URL)

	tree, tr, err := c.FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Epsilon != 15 || tr.Height != 2 {
		t.Errorf("tree response: %+v", tr)
	}
	if tree.NumLeaves() != 49 {
		t.Fatalf("rebuilt tree has %d leaves", tree.NumLeaves())
	}
	priors, err := c.FetchPriors(tree)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := c.FetchForest(tree, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(forest.Entries) != 7 {
		t.Fatalf("forest has %d entries", len(forest.Entries))
	}
	// Full user-side pipeline over the wire-rebuilt forest.
	pol := policy.Policy{PrivacyLevel: 1, PrecisionLevel: 0}
	out, err := core.GenerateObfuscatedLocation(tree, forest, geo.SanFrancisco.Center(),
		pol, nil, priors, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Contains(out.Reported) {
		t.Fatalf("reported %v not in tree", out.Reported)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, 2, registry.Options{})

	// Wrong methods.
	resp, err := http.Post(ts.URL+"/v1/tree", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/tree -> %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/matrices")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/matrices -> %d", resp.StatusCode)
	}
	// Malformed body.
	resp, err = http.Post(ts.URL+"/v1/matrices", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON -> %d", resp.StatusCode)
	}
	// Invalid privacy level surfaces as unprocessable.
	resp, err = http.Post(ts.URL+"/v1/matrices", "application/json",
		strings.NewReader(`{"privacy_l": 9, "delta": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad level -> %d", resp.StatusCode)
	}
	// Client error paths.
	c := NewClient(ts.URL)
	tree, _, err := c.FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchForest(tree, 9, 1); err == nil {
		t.Error("client must surface server rejection")
	}
}
