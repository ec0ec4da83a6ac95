package proto

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"corgi/internal/core"
	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/registry"
)

func generateTestForest(t *testing.T) (*loctree.Tree, *core.Forest) {
	t.Helper()
	sys, err := hexgrid.NewSystem(geo.SanFrancisco.Center(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := loctree.NewAt(sys, geo.SanFrancisco.Center(), 2)
	if err != nil {
		t.Fatal(err)
	}
	priors := loctree.UniformPriors(tree)
	leaves := tree.LevelNodes(0)
	targets := []geo.LatLng{tree.Center(leaves[0]), tree.Center(leaves[24])}
	srv, err := core.NewServer(tree, priors, targets, []float64{1, 1}, core.Params{
		Epsilon: 15, Iterations: 1, UseGraphApprox: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Privacy level 2 yields the 49x49 root matrix — the matrix-dominated
	// payload the compact encoding targets (the paper's height-3 setup is
	// 343x343, where the gain is larger still).
	forest, err := srv.GenerateForest(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tree, forest
}

// TestWireV2RoundTripAndSize encodes a real forest both ways and checks the
// v2 payload decodes back to the dense matrices within 1e-9 while being at
// least 3x smaller on the wire.
func TestWireV2RoundTripAndSize(t *testing.T) {
	tree, forest := generateTestForest(t)

	v1, err := EncodeForestV1(tree, forest)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := EncodeForestV2(tree, forest)
	if err != nil {
		t.Fatal(err)
	}
	v1Bytes, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	v2Bytes, err := json.Marshal(v2)
	if err != nil {
		t.Fatal(err)
	}
	if len(v1Bytes) < 3*len(v2Bytes) {
		t.Fatalf("v2 payload %d bytes vs v1 %d bytes: reduction %.2fx < 3x",
			len(v2Bytes), len(v1Bytes), float64(len(v1Bytes))/float64(len(v2Bytes)))
	}
	t.Logf("v1 %d bytes, v2 %d bytes (%.1fx smaller)",
		len(v1Bytes), len(v2Bytes), float64(len(v1Bytes))/float64(len(v2Bytes)))

	var decoded ForestResponseV2
	if err := json.Unmarshal(v2Bytes, &decoded); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeForestV2(tree, &decoded)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != len(forest.Entries) {
		t.Fatalf("decoded %d entries, want %d", len(got.Entries), len(forest.Entries))
	}
	for node, want := range forest.Entries {
		g, ok := got.Entries[node]
		if !ok {
			t.Fatalf("decoded forest missing %v", node)
		}
		for i := 0; i < want.Matrix.Dim(); i++ {
			for j := 0; j < want.Matrix.Dim(); j++ {
				if d := math.Abs(g.Matrix.At(i, j) - want.Matrix.At(i, j)); d > 1e-9 {
					t.Fatalf("entry %v (%d,%d): decode error %g > 1e-9", node, i, j, d)
				}
			}
		}
	}
}

// TestWireV2DecodeErrors exercises the malformed-blob paths.
func TestWireV2DecodeErrors(t *testing.T) {
	tree, forest := generateTestForest(t)
	good, err := EncodeForestV2(tree, forest)
	if err != nil {
		t.Fatal(err)
	}
	clone := func() *ForestResponseV2 {
		b, _ := json.Marshal(good)
		var c ForestResponseV2
		_ = json.Unmarshal(b, &c)
		return &c
	}

	c := clone()
	c.Entries[0].RootQ = 999
	if _, err := DecodeForestV2(tree, c); err == nil {
		t.Error("foreign root must fail")
	}
	c = clone()
	c.Entries[0].Dim++
	if _, err := DecodeForestV2(tree, c); err == nil {
		t.Error("dim/leaves mismatch must fail")
	}
	c = clone()
	c.Entries[0].Data = c.Entries[0].Data[:len(c.Entries[0].Data)-1]
	if _, err := DecodeForestV2(tree, c); err == nil {
		t.Error("truncated blob must fail")
	}
	c = clone()
	c.Entries[0].Data = append(c.Entries[0].Data, 0)
	if _, err := DecodeForestV2(tree, c); err == nil {
		t.Error("trailing bytes must fail")
	}
	c = clone()
	// Zero the first row's payload: the row no longer sums to 1.
	for i := 2; i < 8 && i < len(c.Entries[0].Data); i++ {
		c.Entries[0].Data[i] = 0
	}
	if _, err := DecodeForestV2(tree, c); err == nil {
		t.Error("non-stochastic row must fail")
	}
}

// TestEncodeForestErrorsOnMissingEntry checks both encoders reject a forest
// that does not cover every privacy-level node.
func TestEncodeForestErrorsOnMissingEntry(t *testing.T) {
	tree, forest := generateTestForest(t)
	for node := range forest.Entries {
		delete(forest.Entries, node)
		break
	}
	if _, err := EncodeForestV1(tree, forest); err == nil {
		t.Error("v1 encoder must reject a partial forest")
	}
	if _, err := EncodeForestV2(tree, forest); err == nil {
		t.Error("v2 encoder must reject a partial forest")
	}
}

// TestDecodeForestV1Errors exercises the v1 validation paths.
func TestDecodeForestV1Errors(t *testing.T) {
	tree, forest := generateTestForest(t)
	good, err := EncodeForestV1(tree, forest)
	if err != nil {
		t.Fatal(err)
	}
	clone := func() *ForestResponse {
		b, _ := json.Marshal(good)
		var c ForestResponse
		_ = json.Unmarshal(b, &c)
		return &c
	}

	if _, err := DecodeForest(tree, clone()); err != nil {
		t.Fatalf("pristine response must decode: %v", err)
	}
	c := clone()
	c.Entries[0].RootQ = 999
	if _, err := DecodeForest(tree, c); err == nil {
		t.Error("foreign root must fail")
	}
	c = clone()
	c.Entries[0].Rows = c.Entries[0].Rows[:len(c.Entries[0].Rows)-1]
	if _, err := DecodeForest(tree, c); err == nil {
		t.Error("rows/leaves mismatch must fail")
	}
	c = clone()
	c.Entries[0].Rows[0][0] += 0.5
	if _, err := DecodeForest(tree, c); err == nil {
		t.Error("non-stochastic row must fail")
	}
	c = clone()
	c.Entries[0].Leaves[0] = [2]int{999, 999}
	if _, err := DecodeForest(tree, c); err == nil {
		t.Error("foreign leaf must fail")
	}
}

// TestHandlerWireV2Negotiation checks Accept-driven selection of the
// compact encoding and that the default client transparently consumes it.
func TestHandlerWireV2Negotiation(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, 2, registry.Options{})

	body := `{"privacy_l": 1, "delta": 0}`
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/matrices", strings.NewReader(body))
	req.Header.Set("Accept", ContentTypeForestV2)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, ContentTypeForestV2) {
		t.Fatalf("Accept v2 answered with Content-Type %q", ct)
	}
	var fr ForestResponseV2
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Entries) != 7 {
		t.Fatalf("v2 response has %d entries, want 7", len(fr.Entries))
	}

	// No Accept header keeps the v1 dense format.
	resp2, err := http.Post(ts.URL+"/v1/matrices", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") || strings.Contains(ct, ContentTypeForestV2) {
		t.Fatalf("default request answered with Content-Type %q", ct)
	}

	// The high-level client negotiates v2 end-to-end.
	c := NewClient(ts.URL)
	tree, _, err := c.FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	forest, err := c.FetchForest(tree, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(forest.Entries) != 7 {
		t.Fatalf("client decoded %d entries, want 7", len(forest.Entries))
	}
}

// TestHandlerGzip checks explicit gzip negotiation on the matrices route.
func TestHandlerGzip(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, 2, registry.Options{})

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/matrices",
		strings.NewReader(`{"privacy_l": 1, "delta": 0}`))
	req.Header.Set("Accept-Encoding", "gzip")
	// DisableCompression keeps net/http from transparently gunzipping so the
	// encoding is observable.
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding %q, want gzip", enc)
	}
	gz, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	var fr ForestResponse
	if err := json.Unmarshal(raw, &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Entries) != 7 {
		t.Fatalf("gzipped response has %d entries, want 7", len(fr.Entries))
	}
}

// TestHealthzAndStats covers the operational endpoints.
func TestHealthzAndStats(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, 2, registry.Options{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("ok")) {
		t.Fatalf("healthz -> %d %q", resp.StatusCode, body)
	}

	// Generate something, then confirm the stats reflect it.
	if _, err := http.Post(ts.URL+"/v1/matrices", "application/json",
		strings.NewReader(`{"privacy_l": 1, "delta": 0}`)); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ms MultiStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&ms); err != nil {
		t.Fatal(err)
	}
	st := ms.Regions["sf"]
	if st != ms.Total {
		t.Fatalf("one-region total %+v differs from its region %+v", ms.Total, st)
	}
	if st.Solves == 0 || st.Misses == 0 {
		t.Fatalf("stats after generation: %+v", st)
	}
	if st.Workers < 1 || st.CacheCapacityBytes < 1 {
		t.Fatalf("stats missing engine config: %+v", st)
	}
}

// TestConcurrentMatricesSingleflight fires identical concurrent HTTP
// requests and checks exactly one LP solve ran per privacy-level node.
func TestConcurrentMatricesSingleflight(t *testing.T) {
	ts, _, sh := newTestServer(t, 2, 2, registry.Options{})

	const callers = 6
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/matrices", "application/json",
				strings.NewReader(`{"privacy_l": 1, "delta": 1}`))
			if err != nil {
				errs[c] = err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", c, err)
		}
	}
	// Height-2 tree, level 1 -> 7 subtree nodes; singleflight + cache must
	// collapse 6 identical forest requests onto one solve each.
	if st := sh.Server.Stats(); st.Solves != 7 {
		t.Fatalf("%d concurrent identical forest requests ran %d solves, want 7", callers, st.Solves)
	}
}

// TestHandlerTimeout checks an impossible deadline surfaces as 504.
func TestHandlerTimeout(t *testing.T) {
	_, h, _ := newTestServer(t, 2, 2, registry.Options{})
	h.Timeout = 1 // 1ns: expired before generation starts
	req := httptest.NewRequest(http.MethodPost, "/v1/matrices",
		strings.NewReader(`{"privacy_l": 1, "delta": 2}`))
	rec := httptest.NewRecorder()
	h.Mux().ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out generation -> %d, want 504", rec.Code)
	}
}
