package proto

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"corgi/internal/core"
	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/registry"
	"corgi/internal/store"
)

// memoReps snapshots a memo's representations under its lock.
func memoReps(m *forestMemo) map[forestRepKey]*forestRep {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[forestRepKey]*forestRep, len(m.reps))
	for k, rep := range m.reps {
		out[k] = rep
	}
	return out
}

// rawClient neither adds nor strips content codings, so tests see the
// exact bytes the server sent.
var rawClient = &http.Client{Transport: &http.Transport{DisableCompression: true}}

// forestReply is every part of a forest response the memo must reproduce.
type forestReply struct {
	status                      int
	etag, ctype, encoding, vary string
	body                        []byte
}

func replyOf(t *testing.T, resp *http.Response) forestReply {
	t.Helper()
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return forestReply{
		status:   resp.StatusCode,
		etag:     resp.Header.Get("ETag"),
		ctype:    resp.Header.Get("Content-Type"),
		encoding: resp.Header.Get("Content-Encoding"),
		vary:     resp.Header.Get("Vary"),
		body:     body,
	}
}

// forestVariant is one request representation: wire encoding and whether
// gzip is offered.
type forestVariant struct {
	name   string
	v2, gz bool
}

var forestVariants = []forestVariant{
	{"v1/identity", false, false},
	{"v1/gzip", false, true},
	{"v2/identity", true, false},
	{"v2/gzip", true, true},
}

// fetchForest requests (level, delta) in variant v: POST /v1/matrices
// (the default region) when region is empty, GET /v1/forest?region=
// otherwise.
func fetchForest(t *testing.T, base, region string, level, delta int, v forestVariant, inm string) forestReply {
	t.Helper()
	var req *http.Request
	var err error
	if region == "" {
		body, _ := json.Marshal(MatrixRequest{PrivacyLevel: level, Delta: delta})
		req, err = http.NewRequest(http.MethodPost, base+"/v1/matrices", bytes.NewReader(body))
	} else {
		req, err = http.NewRequest(http.MethodGet, base+"/v1/forest?region="+region+
			"&privacy_l="+strconv.Itoa(level)+"&delta="+strconv.Itoa(delta), nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	if v.v2 {
		req.Header.Set("Accept", ContentTypeForestV2)
	}
	if v.gz {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := rawClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return replyOf(t, resp)
}

// freshForestReply is the reference encoding the memo must match: the
// forest encoded, tagged over the identity body and gzipped by a fresh
// default-level writer when gzip is offered and the body reaches the
// threshold. A 304 carries only the tag and Vary.
func freshForestReply(t *testing.T, tree *loctree.Tree, forest *core.Forest, v forestVariant, notModified bool) forestReply {
	t.Helper()
	var enc interface{}
	var err error
	ctype := "application/json"
	if v.v2 {
		ctype = ContentTypeForestV2
		enc, err = EncodeForestV2(tree, forest)
	} else {
		enc, err = EncodeForestV1(tree, forest)
	}
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(body)
	etag := hex.EncodeToString(sum[:16])
	want := forestReply{status: http.StatusOK, ctype: ctype, vary: "Accept, Accept-Encoding", body: body}
	if v.gz && len(body) >= gzipMinBytes {
		var buf bytes.Buffer
		gz := gzip.NewWriter(&buf)
		gz.Write(body)
		gz.Close()
		want.body = buf.Bytes()
		want.encoding = "gzip"
		etag += "-gzip"
	}
	want.etag = `"` + etag + `"`
	if notModified {
		want.status = http.StatusNotModified
		want.ctype, want.encoding, want.body = "", "", nil
	}
	return want
}

func checkReply(t *testing.T, what string, got, want forestReply) {
	t.Helper()
	if got.status != want.status || got.etag != want.etag || got.ctype != want.ctype ||
		got.encoding != want.encoding || got.vary != want.vary {
		t.Errorf("%s: got status %d etag %s type %q coding %q vary %q; want %d %s %q %q %q", what,
			got.status, got.etag, got.ctype, got.encoding, got.vary,
			want.status, want.etag, want.ctype, want.encoding, want.vary)
	}
	if !bytes.Equal(got.body, want.body) {
		t.Errorf("%s: body differs from a fresh encode (%d vs %d bytes)", what, len(got.body), len(want.body))
	}
}

func TestWriteRawGzipThreshold(t *testing.T) {
	small := bytes.Repeat([]byte("r"), gzipMinBytes-1)
	large := bytes.Repeat([]byte(`{"lat":37.7,"lng":-122.4}`), 40)
	if len(large) < gzipMinBytes {
		t.Fatal("large body under the threshold")
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/report", nil)
	req.Header.Set("Accept-Encoding", "gzip, deflate")

	rec := httptest.NewRecorder()
	writeRaw(rec, req, "application/json", small)
	if enc := rec.Header().Get("Content-Encoding"); enc != "" {
		t.Errorf("%d-byte body sent with Content-Encoding %q, want identity", len(small), enc)
	}
	if !bytes.Equal(rec.Body.Bytes(), small) {
		t.Error("identity body altered")
	}

	rec = httptest.NewRecorder()
	writeRaw(rec, req, "application/json", large)
	if enc := rec.Header().Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("%d-byte body sent with Content-Encoding %q, want gzip", len(large), enc)
	}
	var want bytes.Buffer
	gz := gzip.NewWriter(&want)
	gz.Write(large)
	gz.Close()
	if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Error("gzipped body differs from a fresh default-level gzip.Writer")
	}
}

// TestSmallForestNotGzipped serves a one-entry forest whose body is under
// the threshold: it goes out as identity even to a gzip-offering client,
// so its tag carries no coding suffix, and Vary still names both axes.
func TestSmallForestNotGzipped(t *testing.T) {
	ts, _, sh := newTestServer(t, 1, 1, registry.Options{})
	srv := sh.Server
	v := forestVariant{"v2/gzip", true, true}
	got := fetchForest(t, ts.URL, "", 1, 0, v, "")
	if got.status != http.StatusOK {
		t.Fatalf("status %d", got.status)
	}
	if len(got.body) >= gzipMinBytes {
		t.Fatalf("one-entry forest body is %d bytes; the test needs one under %d", len(got.body), gzipMinBytes)
	}
	if got.encoding != "" || strings.Contains(got.etag, "-gzip") {
		t.Errorf("small forest sent with coding %q and tag %s, want identity and no suffix", got.encoding, got.etag)
	}
	if got.vary != "Accept, Accept-Encoding" {
		t.Errorf("Vary %q", got.vary)
	}
	forest, err := srv.GenerateForest(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkReply(t, "small forest", got, freshForestReply(t, srv.Tree(), forest, v, false))
}

// TestForestMemoMatchesFreshEncode is the memo's differential test: on
// both forest routes and for every representation, the first 200
// (encoded), a repeat 200 and a 304 (both from the memo) equal a fresh
// encode.
func TestForestMemoMatchesFreshEncode(t *testing.T) {
	cases := []struct {
		name, region string
	}{
		{"POST /v1/matrices", ""},
		{"GET /v1/forest", "sf"},
	}
	for _, c := range cases {
		ts, h, sh := newTestServer(t, 2, 1, registry.Options{})
		srv := sh.Server
		for _, v := range forestVariants {
			what := c.name + " " + v.name
			first := fetchForest(t, ts.URL, c.region, 1, 0, v, "")
			forest, err := srv.GenerateForest(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := freshForestReply(t, srv.Tree(), forest, v, false)
			if v.gz && want.encoding != "gzip" {
				t.Fatalf("%s: test forest is under the gzip threshold", what)
			}
			checkReply(t, what+" first 200", first, want)
			checkReply(t, what+" memo 200", fetchForest(t, ts.URL, c.region, 1, 0, v, ""), want)
			checkReply(t, what+" memo 304", fetchForest(t, ts.URL, c.region, 1, 0, v, `"stale", `+want.etag),
				freshForestReply(t, srv.Tree(), forest, v, true))
		}
		reps := memoReps(&h.forests)
		if len(reps) != len(forestVariants) {
			t.Errorf("%s memo holds %d representations, want %d", c.name, len(reps), len(forestVariants))
		}
		for key, rep := range reps {
			if key.region != "sf" {
				t.Errorf("%s memo keyed region %q, want %q", c.name, key.region, "sf")
			}
			forest, err := srv.GenerateForest(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.encodes(forest) {
				t.Errorf("%s memo representation %+v does not match the warm forest", c.name, key)
			}
		}
	}
}

// TestForestMemoInvalidation checks the memo never serves a
// representation of entries the engine has replaced: after eviction and a
// store reload, and after a degraded fallback is upgraded.
func TestForestMemoInvalidation(t *testing.T) {
	v := forestVariant{"v2/gzip", true, true}

	t.Run("evicted and reloaded", func(t *testing.T) {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		gen, err := registry.New([]registry.Spec{sfSpec(2, 1)}, registry.Options{Store: st, WarmupDelta: -1})
		if err != nil {
			t.Fatal(err)
		}
		genShard, err := gen.Shard(context.Background(), "sf")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := genShard.Server.GenerateForest(1, 0); err != nil {
			t.Fatal(err)
		}
		gen.FlushStores()

		// A 1 KiB cache holds at most one or two of the level's entries,
		// so every request reloads the rest from the store as new objects.
		ts, h, sh := newTestServer(t, 2, 1, registry.Options{
			Store: st, Engine: core.EngineOptions{CacheBytes: 1 << 10},
		})
		srv := sh.Server
		key := forestRepKey{region: "sf", level: 1, delta: 0, v2: true, gzip: true}

		first := fetchForest(t, ts.URL, "", 1, 0, v, "")
		rep1 := memoReps(&h.forests)[key]
		second := fetchForest(t, ts.URL, "", 1, 0, v, first.etag)
		rep2 := memoReps(&h.forests)[key]
		if rep1 == nil || rep2 == nil || rep1 == rep2 {
			t.Fatal("reloaded entries did not force a fresh representation")
		}
		reloaded := 0
		for node, seq := range rep1.seqs {
			if rep2.seqs[node] != seq {
				reloaded++
			}
		}
		if reloaded == 0 {
			t.Error("fresh representation encoded from the same entries")
		}
		stats := srv.Stats()
		if stats.Evictions == 0 || stats.StoreHits < 2 || stats.Solves != 0 {
			t.Fatalf("want evictions, >= 2 store hits and no solves; got %+v", stats)
		}
		forest, err := srv.GenerateForest(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkReply(t, "first", first, freshForestReply(t, srv.Tree(), forest, v, false))
		checkReply(t, "revalidated", second, freshForestReply(t, srv.Tree(), forest, v, true))
	})

	t.Run("degraded upgraded", func(t *testing.T) {
		_, _, sh := newTestServer(t, 2, 1, registry.Options{
			Engine: core.EngineOptions{DegradedServing: true},
		})
		srv := sh.Server
		tree := srv.Tree()
		// Cold entries come back as fallbacks; one whose upgrade raced
		// ahead of its own return may already be optimal.
		degraded := &core.Forest{PrivacyLevel: 1, Entries: map[loctree.NodeID]*core.ForestEntry{}}
		fallbacks := 0
		for _, node := range tree.LevelNodes(1) {
			e, err := srv.ServeEntryCtx(context.Background(), node, 0)
			if err != nil {
				t.Fatal(err)
			}
			degraded.Entries[node] = e
			if e.Degraded {
				fallbacks++
			}
		}
		if fallbacks == 0 {
			t.Fatal("no cold entry was served as a degraded fallback")
		}
		var memo forestMemo
		serve := func(forest *core.Forest) forestReply {
			req := httptest.NewRequest(http.MethodPost, "/v1/matrices", nil)
			req.Header.Set("Accept", ContentTypeForestV2)
			req.Header.Set("Accept-Encoding", "gzip")
			rec := httptest.NewRecorder()
			memo.serve(rec, req, "", tree, forest)
			return replyOf(t, rec.Result())
		}
		before := serve(degraded)
		checkReply(t, "degraded", before, freshForestReply(t, tree, degraded, v, false))

		srv.WaitUpgrades()
		optimal, err := srv.GenerateForest(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		for node, e := range optimal.Entries {
			if e.Degraded {
				t.Fatalf("entry %v still degraded after its upgrade", node)
			}
		}
		after := serve(optimal)
		checkReply(t, "upgraded", after, freshForestReply(t, tree, optimal, v, false))
		if after.etag == before.etag || bytes.Equal(after.body, before.body) {
			t.Error("upgraded forest served the degraded representation")
		}
	})
}

// TestReportHTTPAllocs guards the report path's allocation budget: a warm
// /v1/report from a gzip-offering client, client and server together,
// must stay far below the ~800 KB a per-response gzip.Writer costs.
func TestReportHTTPAllocs(t *testing.T) {
	srv, _ := reportServer(t, "alloc")
	c := NewClient(srv.URL)
	tree, _, err := c.FetchTree()
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.LevelNodes(0)[0]
	body, err := json.Marshal(ReportRequest{
		Region: "alloc", Cell: [2]int{leaf.Coord.Q, leaf.Coord.R},
		Policy: policy.Policy{PrivacyLevel: 1}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	report := func() error {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/report", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept-Encoding", "gzip")
		resp, err := rawClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("report status %d", resp.StatusCode)
		}
		return nil
	}
	if err := report(); err != nil { // bootstrap the region and its session
		t.Fatal(err)
	}
	var failed error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := report(); err != nil {
				failed = err
				return
			}
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	const limit = 64 << 10
	if got := res.AllocedBytesPerOp(); got > limit {
		t.Fatalf("warm gzip-offering /v1/report allocates %d B per request, limit %d", got, limit)
	}
	t.Logf("warm /v1/report: %d B and %d allocs per request", res.AllocedBytesPerOp(), res.AllocsPerOp())
}
