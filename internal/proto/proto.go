// Package proto implements the client/server interaction of Sec. 5
// (Fig. 1/8) as JSON over HTTP. The server (cloud side) owns the location
// tree and solves the expensive optimization; clients send only
// non-sensitive parameters — the privacy level and the *number* of
// locations they intend to prune (|S|), never locations or preference
// contents — and receive the privacy forest of robust matrices to customize
// locally.
//
// One handler, MultiHandler (multi.go), serves every route over a
// registry of region shards; a single-region deployment is a registry
// with one region, addressed by omitting ?region=. Client is its
// counterpart.
//
// Two wire formats coexist. v1 is dense row-major JSON ([][]float64),
// served as plain application/json for compatibility. v2 (see wire.go) is a
// quantized row-sparse binary encoding negotiated via the Accept header
// (ContentTypeForestV2) that cuts forest payloads by >3x before
// compression. Responses of at least 512 bytes are additionally gzipped
// when the client offers Accept-Encoding: gzip; smaller ones, report
// bodies among them, go out as identity, since gzip would save about as
// many bytes as its header line costs. Forest responses carry strong ETags
// (a SHA-256 over the encoded body, suffixed when gzipped — stable across
// restarts because generation is deterministic and the v2 quantization
// idempotent) plus Vary: Accept, Accept-Encoding, and requests with a
// matching If-None-Match get 304 Not Modified with no body, so clients can
// keep their own on-disk forest caches and revalidate for free. The
// handler memoizes every forest's final representation, so 200s and 304s
// for an unchanged forest skip encoding, hashing and compression. Requests
// carry the caller's context through the handler into the generation
// engine, bounded by MultiHandler.Timeout.
//
// The handler also exposes the report pipeline (POST /v1/report, batch
// /v1/reports, leases on /v1/lease; see report.go and lease.go): the
// server evaluates the inline policy, prunes, and draws obfuscated
// reports from per-user sessions — a trusted-serving mode that trades
// Sec. 5's trust model for per-report draws instead of matrix shipping.
// These routes accept client fields only: cluster forwarding and budget
// handoffs travel between nodes over corgi-stream, never through them.
package proto

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"corgi/internal/core"
	"corgi/internal/geo"
	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/obf"
)

// TreeResponse describes the server's location tree so a client can rebuild
// it locally (trees are deterministic given these parameters).
type TreeResponse struct {
	OriginLat     float64 `json:"origin_lat"`
	OriginLng     float64 `json:"origin_lng"`
	LeafSpacingKm float64 `json:"leaf_spacing_km"`
	Height        int     `json:"height"`
	RootQ         int     `json:"root_q"`
	RootR         int     `json:"root_r"`
	Epsilon       float64 `json:"epsilon"`
}

// MatrixRequest asks for a privacy forest. Only the privacy level and the
// prune allowance delta = |S| cross the trust boundary (Sec. 5.2 step 4).
type MatrixRequest struct {
	PrivacyLevel int `json:"privacy_l"`
	Delta        int `json:"delta"`
}

// ForestEntryWire is one subtree's matrix on the wire.
type ForestEntryWire struct {
	RootQ  int         `json:"root_q"`
	RootR  int         `json:"root_r"`
	Leaves [][2]int    `json:"leaves"` // axial coords in matrix order
	Rows   [][]float64 `json:"rows"`
}

// ForestResponse carries the whole privacy forest.
type ForestResponse struct {
	PrivacyLevel int               `json:"privacy_l"`
	Delta        int               `json:"delta"`
	Entries      []ForestEntryWire `json:"entries"`
}

// PriorsResponse carries the public leaf priors (footnote 5 of the paper).
type PriorsResponse struct {
	Leaves [][2]int  `json:"leaves"`
	Probs  []float64 `json:"probs"`
}

// StatsResponse mirrors core.EngineStats for /v1/stats.
type StatsResponse struct {
	Hits               uint64 `json:"cache_hits"`
	Misses             uint64 `json:"cache_misses"`
	Evictions          uint64 `json:"cache_evictions"`
	CacheBytes         int64  `json:"cache_bytes"`
	CacheEntries       int    `json:"cache_entries"`
	CacheCapacityBytes int64  `json:"cache_capacity_bytes"`
	Solves             uint64 `json:"solves"`
	InFlight           int64  `json:"in_flight"`
	Workers            int    `json:"workers"`
	StoreHits          uint64 `json:"store_hits"`
	StoreMisses        uint64 `json:"store_misses"`
	StoreWrites        uint64 `json:"store_writes"`
	StoreHydrated      uint64 `json:"store_hydrated"`
	AliasBuilds        uint64 `json:"alias_builds"`
	AliasHits          uint64 `json:"alias_hits"`
	AliasBytes         int64  `json:"alias_bytes"`
	DegradedBuilds     uint64 `json:"degraded_builds"`
	DegradedHits       uint64 `json:"degraded_hits"`
	DegradedUpgrades   uint64 `json:"degraded_upgrades"`
	WarmAttempts       uint64 `json:"warm_attempts"`
	WarmAccepts        uint64 `json:"warm_accepts"`
}

// writeJSONAs encodes v with the given content type, gzipping when the
// client offered Accept-Encoding: gzip (r may be nil to skip negotiation).
// Encoding happens into a buffer first so a marshal failure becomes a clean
// 500 instead of a half-written body under already-flushed headers.
func writeJSONAs(w http.ResponseWriter, r *http.Request, contentType string, v interface{}) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeRaw(w, r, contentType, body)
}

// gzipMinBytes is the smallest body writeRaw gzips. A gzip.Writer
// allocates a ~800 KB compressor, and report bodies (140-200 B) gain only
// 2-24 B from it, about what the Content-Encoding header line costs; every
// builtin forest body is larger and shrinks 40-75%.
const gzipMinBytes = 512

// acceptsGzip reports whether the client offered Accept-Encoding: gzip
// (r may be nil to skip negotiation).
func acceptsGzip(r *http.Request) bool {
	return r != nil && strings.Contains(r.Header.Get("Accept-Encoding"), "gzip")
}

// writeRaw sends a pre-marshaled body, gzipped when the client offered
// Accept-Encoding: gzip and the body is at least gzipMinBytes long;
// smaller bodies go out as identity either way (r may be nil to skip
// negotiation).
func writeRaw(w http.ResponseWriter, r *http.Request, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	if len(body) >= gzipMinBytes && acceptsGzip(r) {
		w.Header().Set("Content-Encoding", "gzip")
		body = gzipBytes(body)
	}
	w.Write(body)
}

// gzipBytes compresses body at the default level.
func gzipBytes(body []byte) []byte {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write(body)
	gz.Close()
	return buf.Bytes()
}

// forestETag derives the strong ETag for an encoded forest body. Forest
// generation is deterministic and the v2 codec's quantization idempotent,
// so the tag is stable across processes and store round-trips for v2
// responses; it covers the exact representation — v1 and v2 bodies tag
// differently, and (strong ETags name the representation including its
// content coding, RFC 9110 §8.8.3) a gzipped response tags differently
// from the identity one.
func forestETag(body []byte, gzipped bool) string {
	sum := sha256.Sum256(body)
	tag := hex.EncodeToString(sum[:16])
	if gzipped {
		tag += "-gzip"
	}
	return `"` + tag + `"`
}

// etagMatches implements the If-None-Match strong comparison: any listed
// tag equal to etag (weak W/ tags never strongly match), or "*".
func etagMatches(header, etag string) bool {
	for header != "" {
		var tok string
		tok, header, _ = strings.Cut(header, ",")
		tok = strings.TrimSpace(tok)
		if tok == "*" || (tok != "" && tok == etag) {
			return true
		}
	}
	return false
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	writeJSONAs(w, nil, "application/json", v)
}

// jsonBufPool recycles encode buffers for the report hot paths: at a few
// kilobytes per response, per-request buffers are the dominant handler
// allocation once the pipeline itself stops allocating.
var jsonBufPool = sync.Pool{
	New: func() interface{} { return new(bytes.Buffer) },
}

// writeJSONPooled is writeJSONAs with a pooled encode buffer, for hot
// JSON routes (the report paths). Marshal failures still become a clean
// 500 before any body byte is written.
func writeJSONPooled(w http.ResponseWriter, r *http.Request, v interface{}) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		jsonBufPool.Put(buf)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeRaw(w, r, "application/json", buf.Bytes())
	// A rare huge batch response should not pin its buffer in the pool.
	if buf.Cap() <= 1<<20 {
		jsonBufPool.Put(buf)
	}
}

// drainBody consumes what remains of a response body (bounded, so a
// misbehaving server cannot hold the client) before the caller closes it.
// An HTTP/1.1 connection only returns to the keep-alive pool when its
// body has been read to EOF; closing early tears the connection down and
// the next request pays a fresh TCP (and possibly TLS) setup.
func drainBody(body io.Reader) {
	io.Copy(io.Discard, io.LimitReader(body, 64<<10))
}

// statsResponse converts engine counters to their wire form.
func statsResponse(s core.EngineStats) StatsResponse {
	return StatsResponse{
		Hits:               s.Hits,
		Misses:             s.Misses,
		Evictions:          s.Evictions,
		CacheBytes:         s.CacheBytes,
		CacheEntries:       s.CacheEntries,
		CacheCapacityBytes: s.CacheCapacity,
		Solves:             s.Solves,
		InFlight:           s.InFlight,
		Workers:            s.Workers,
		StoreHits:          s.StoreHits,
		StoreMisses:        s.StoreMisses,
		StoreWrites:        s.StoreWrites,
		StoreHydrated:      s.StoreHydrated,
		AliasBuilds:        s.AliasBuilds,
		AliasHits:          s.AliasHits,
		AliasBytes:         s.AliasBytes,
		DegradedBuilds:     s.DegradedBuilds,
		DegradedHits:       s.DegradedHits,
		DegradedUpgrades:   s.DegradedUpgrades,
		WarmAttempts:       s.WarmAttempts,
		WarmAccepts:        s.WarmAccepts,
	}
}

// treeResponse describes a tree so a client can rebuild it locally.
func treeResponse(tree *loctree.Tree, spacing, epsilon float64) TreeResponse {
	origin := tree.System().Origin()
	root := tree.Root()
	return TreeResponse{
		OriginLat:     origin.Lat,
		OriginLng:     origin.Lng,
		LeafSpacingKm: spacing,
		Height:        tree.Height(),
		RootQ:         root.Coord.Q,
		RootR:         root.Coord.R,
		Epsilon:       epsilon,
	}
}

// priorsResponse flattens the public leaf priors for the wire.
func priorsResponse(tree *loctree.Tree, priors *loctree.Priors) PriorsResponse {
	leaves := tree.LevelNodes(0)
	resp := PriorsResponse{Leaves: make([][2]int, len(leaves)), Probs: make([]float64, len(leaves))}
	for i, l := range leaves {
		resp.Leaves[i] = [2]int{l.Coord.Q, l.Coord.R}
		resp.Probs[i] = priors.Of(tree, l)
	}
	return resp
}

// generateErrStatus maps a forest-generation error to an HTTP status and
// message, shared by the single-forest and batch paths.
func generateErrStatus(err error) (int, string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "generation timed out: " + err.Error()
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "request canceled"
	default:
		return http.StatusUnprocessableEntity, err.Error()
	}
}

// wantsForestV2 reports whether the request negotiated the compact v2
// forest encoding via Accept.
func wantsForestV2(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), ContentTypeForestV2)
}

// maxForestReps bounds a forestMemo. Clients choose the delta they ask
// for, so the set of forests requested is open-ended; all ten builtin
// regions at the default height, with every level and delta 0-2 in all
// four representations, need 240.
const maxForestReps = 512

// forestRepKey names one memoized representation: a forest in one wire
// encoding, for clients that do or do not offer gzip (whether gzip is
// applied then follows from the body size).
type forestRepKey struct {
	region       string
	level, delta int
	v2, gzip     bool
}

// forestRep is one forest's final HTTP representation: the body exactly
// as sent (gzipped when gzip applies), its strong ETag and content type.
type forestRep struct {
	etag, ctype string
	gzipped     bool
	body        []byte
	// seqs maps each subtree root to the ForestEntry.Seq the body was
	// encoded from. Only the numbers are kept, so the memo never pins an
	// entry the engine has evicted.
	seqs map[loctree.NodeID]uint64
}

// forestMemo keeps the final representation of every forest a handler
// served, so 200s and 304s for an unchanged forest skip encoding, hashing
// and compressing. A representation is reused only while a freshly
// generated forest holds exactly the entry objects it was encoded from:
// an entry re-solved after eviction, reloaded from the store or upgraded
// from a degraded fallback carries a new sequence number and forces a
// fresh encode. The zero value is ready to use.
type forestMemo struct {
	mu   sync.Mutex
	reps map[forestRepKey]*forestRep
}

// serve writes forest in whichever encoding r negotiated (v2 compact or v1
// dense), with a strong ETag over the encoded body. A request whose
// If-None-Match lists the current tag gets 304 Not Modified with no body
// — clients keep a small forest cache and revalidate for free
// (generation itself is served by the engine's own caches; the 304 saves
// the payload bytes).
func (m *forestMemo) serve(w http.ResponseWriter, r *http.Request, region string, tree *loctree.Tree, forest *core.Forest) {
	key := forestRepKey{
		region: region, level: forest.PrivacyLevel, delta: forest.Delta,
		v2: wantsForestV2(r), gzip: acceptsGzip(r),
	}
	m.mu.Lock()
	rep := m.reps[key]
	m.mu.Unlock()
	if rep == nil || !rep.encodes(forest) {
		var err error
		if rep, err = encodeForestRep(tree, forest, key.v2, key.gzip); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		m.put(key, rep)
	}
	// The response varies by negotiated encoding (Accept) and content
	// coding (Accept-Encoding), and the strong ETag must name that exact
	// representation — without both, a shared cache could satisfy a
	// v1/identity client with v2/gzip bytes.
	h := w.Header()
	h.Set("Vary", "Accept, Accept-Encoding")
	h.Set("ETag", rep.etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, rep.etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", rep.ctype)
	if rep.gzipped {
		h.Set("Content-Encoding", "gzip")
	}
	w.Write(rep.body)
}

// put stores rep under key, dropping an arbitrary other representation
// when the memo is full.
func (m *forestMemo) put(key forestRepKey, rep *forestRep) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.reps == nil {
		m.reps = make(map[forestRepKey]*forestRep)
	}
	if _, ok := m.reps[key]; !ok && len(m.reps) >= maxForestReps {
		for k := range m.reps {
			delete(m.reps, k)
			break
		}
	}
	m.reps[key] = rep
}

// encodes reports whether rep was encoded from exactly forest's entries.
func (rep *forestRep) encodes(forest *core.Forest) bool {
	if len(rep.seqs) != len(forest.Entries) {
		return false
	}
	for node, e := range forest.Entries {
		if seq, ok := rep.seqs[node]; !ok || seq == 0 || seq != e.Seq() {
			return false
		}
	}
	return true
}

// encodeForestRep encodes forest in v2 or v1, gzips it when the client
// offers gzip and the body reaches gzipMinBytes (as writeRaw does), and
// tags the result.
func encodeForestRep(tree *loctree.Tree, forest *core.Forest, v2, offersGzip bool) (*forestRep, error) {
	var (
		v     interface{}
		ctype = "application/json"
		err   error
	)
	if v2 {
		ctype = ContentTypeForestV2
		v, err = EncodeForestV2(tree, forest)
	} else {
		v, err = EncodeForestV1(tree, forest)
	}
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	rep := &forestRep{
		ctype:   ctype,
		gzipped: offersGzip && len(body) >= gzipMinBytes,
		body:    body,
		seqs:    make(map[loctree.NodeID]uint64, len(forest.Entries)),
	}
	rep.etag = forestETag(body, rep.gzipped)
	if rep.gzipped {
		// The memo keeps the body for the handler's lifetime: drop the
		// compression buffer's growth slack.
		rep.body = bytes.Clone(gzipBytes(body))
	}
	for node, e := range forest.Entries {
		rep.seqs[node] = e.Seq()
	}
	return rep, nil
}

// EncodeForestV1 converts a generated forest into the dense v1 wire form,
// emitting entries in the tree's level-node order.
func EncodeForestV1(tree *loctree.Tree, forest *core.Forest) (*ForestResponse, error) {
	resp := &ForestResponse{PrivacyLevel: forest.PrivacyLevel, Delta: forest.Delta}
	for _, node := range tree.LevelNodes(forest.PrivacyLevel) {
		e, ok := forest.Entries[node]
		if !ok {
			return nil, fmt.Errorf("proto: forest missing entry for %v", node)
		}
		wire := ForestEntryWire{RootQ: node.Coord.Q, RootR: node.Coord.R}
		for _, l := range e.Leaves {
			wire.Leaves = append(wire.Leaves, [2]int{l.Coord.Q, l.Coord.R})
		}
		for i := 0; i < e.Matrix.Dim(); i++ {
			row := make([]float64, e.Matrix.Dim())
			copy(row, e.Matrix.Row(i))
			wire.Rows = append(wire.Rows, row)
		}
		resp.Entries = append(resp.Entries, wire)
	}
	return resp, nil
}

// Client is the user-side API consumer. The zero Region addresses the
// server's default region; setting Region (or using NewRegionClient)
// routes every call to that named shard of a multi-region server.
//
// Forest requests advertise the compact v2 encoding and (via the
// transport's default negotiation) gzip; ForceV1 is the escape hatch back
// to dense v1 JSON for debugging or very old servers.
type Client struct {
	base   string
	region string
	http   *http.Client

	// ForceV1 stops advertising the compact v2 forest encoding, so
	// responses come back as dense v1 JSON.
	ForceV1 bool
}

// NewClient targets a server base URL (e.g. "http://127.0.0.1:8080"). The
// client gets its own transport with an idle-connection pool sized for
// concurrent callers: the shared DefaultTransport keeps only 2 idle
// connections per host, which under a concurrent workload (the loadgen,
// batch fan-outs) tears down and re-dials keep-alive connections
// constantly.
func NewClient(base string) *Client {
	tr := &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	}
	return &Client{base: base, http: &http.Client{Transport: tr, Timeout: 10 * time.Minute}}
}

// NewRegionClient targets one named region of a multi-region server.
// Unknown regions fail with the server's 404, whose message lists the
// available region names.
func NewRegionClient(base, region string) *Client {
	c := NewClient(base)
	c.region = region
	return c
}

// path appends the client's region parameter to an API path.
func (c *Client) path(p string) string {
	if c.region == "" {
		return p
	}
	return p + "?region=" + url.QueryEscape(c.region)
}

// FetchRegions lists the server's regions and which one requests without
// a region resolve to.
func (c *Client) FetchRegions() (*RegionsResponse, error) {
	var rr RegionsResponse
	if err := c.getJSON("/v1/regions", &rr); err != nil {
		return nil, err
	}
	return &rr, nil
}

// FetchTree retrieves the tree parameters and rebuilds the location tree.
func (c *Client) FetchTree() (*loctree.Tree, *TreeResponse, error) {
	var tr TreeResponse
	if err := c.getJSON(c.path("/v1/tree"), &tr); err != nil {
		return nil, nil, err
	}
	sys, err := hexgrid.NewSystem(geo.LatLng{Lat: tr.OriginLat, Lng: tr.OriginLng}, tr.LeafSpacingKm)
	if err != nil {
		return nil, nil, err
	}
	tree, err := loctree.New(sys, hexgrid.Coord{Q: tr.RootQ, R: tr.RootR}, tr.Height)
	if err != nil {
		return nil, nil, err
	}
	return tree, &tr, nil
}

// FetchPriors retrieves the public leaf priors for a rebuilt tree.
func (c *Client) FetchPriors(tree *loctree.Tree) (*loctree.Priors, error) {
	var pr PriorsResponse
	if err := c.getJSON(c.path("/v1/priors"), &pr); err != nil {
		return nil, err
	}
	if len(pr.Leaves) != tree.NumLeaves() {
		return nil, fmt.Errorf("proto: server sent %d priors, tree has %d leaves", len(pr.Leaves), tree.NumLeaves())
	}
	leaf := make([]float64, tree.NumLeaves())
	for i, qr := range pr.Leaves {
		n := loctree.NodeID{Level: 0, Coord: hexgrid.Coord{Q: qr[0], R: qr[1]}}
		idx, ok := tree.IndexOf(n)
		if !ok {
			return nil, fmt.Errorf("proto: prior for foreign leaf %v", n)
		}
		leaf[idx] = pr.Probs[i]
	}
	return loctree.NewPriors(tree, leaf)
}

// accept is the Accept header this client advertises for forest routes.
func (c *Client) accept() string {
	if c.ForceV1 {
		return "application/json"
	}
	return ContentTypeForestV2 + ", application/json"
}

// ForestResult is one forest fetch outcome, carrying enough for a caller
// to maintain its own conditional-fetch cache: the decoded forest, the
// response's strong ETag, and the raw body + content type to store and
// re-decode after a later 304.
type ForestResult struct {
	// Forest is the decoded forest; nil when NotModified.
	Forest *core.Forest
	// ETag is the response's entity tag ("" if the server sent none).
	ETag string
	// NotModified reports a 304: the caller's cached copy (whose tag was
	// sent as ifNoneMatch) is still current.
	NotModified bool
	// ContentType and Body are the raw representation, for caching. Empty
	// when NotModified.
	ContentType string
	Body        []byte
}

// FetchForest requests the privacy forest for (privacyLevel, delta) and
// reassembles it against the local tree. The request advertises the compact
// v2 encoding (unless ForceV1); the response Content-Type decides which
// decoder runs, so a v1-only server keeps working unchanged.
func (c *Client) FetchForest(tree *loctree.Tree, privacyLevel, delta int) (*core.Forest, error) {
	res, err := c.FetchForestTagged(tree, privacyLevel, delta, "")
	if err != nil {
		return nil, err
	}
	return res.Forest, nil
}

// FetchForestTagged is FetchForest with conditional-fetch support: a
// non-empty ifNoneMatch is sent as If-None-Match, and a 304 comes back as
// NotModified=true with no body re-downloaded or decoded. Decode a cached
// body with DecodeForestBody.
func (c *Client) FetchForestTagged(tree *loctree.Tree, privacyLevel, delta int, ifNoneMatch string) (*ForestResult, error) {
	body, err := json.Marshal(MatrixRequest{PrivacyLevel: privacyLevel, Delta: delta})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+c.path("/v1/matrices"), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", c.accept())
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	defer drainBody(resp.Body)
	if resp.StatusCode == http.StatusNotModified {
		etag := resp.Header.Get("ETag")
		if etag == "" {
			etag = ifNoneMatch
		}
		return &ForestResult{ETag: etag, NotModified: true}, nil
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("proto: server returned %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	ctype := resp.Header.Get("Content-Type")
	forest, err := DecodeForestBody(tree, ctype, raw)
	if err != nil {
		return nil, err
	}
	return &ForestResult{
		Forest:      forest,
		ETag:        resp.Header.Get("ETag"),
		ContentType: ctype,
		Body:        raw,
	}, nil
}

// DecodeForestBody reassembles a raw forest response body against the
// local tree, dispatching on the response's Content-Type (v2 compact or v1
// dense). It is the decoding half of FetchForestTagged, exported so
// callers can re-decode bodies they cached across a 304.
func DecodeForestBody(tree *loctree.Tree, contentType string, body []byte) (*core.Forest, error) {
	if strings.Contains(contentType, ContentTypeForestV2) {
		var fr ForestResponseV2
		if err := json.Unmarshal(body, &fr); err != nil {
			return nil, err
		}
		return DecodeForestV2(tree, &fr)
	}
	var fr ForestResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		return nil, err
	}
	return DecodeForest(tree, &fr)
}

// FetchForestBatch resolves many (region, privacy level, delta) requests
// in one POST /v1/forests round trip, advertising the compact v2 encoding
// for the embedded forests. Per-item outcomes come back in request order;
// failed items carry their own status and error instead of failing the
// batch. Decode successful items with BatchItemResult.Decode.
func (c *Client) FetchForestBatch(items []BatchItem) (*BatchForestResponse, error) {
	body, err := json.Marshal(BatchForestRequest{Items: items})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/forests", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", c.accept())
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	defer drainBody(resp.Body)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("proto: server returned %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var br BatchForestResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return nil, err
	}
	return &br, nil
}

// Decode reassembles a successful batch item's forest against its
// region's local tree, whichever encoding the batch negotiated.
func (r *BatchItemResult) Decode(tree *loctree.Tree) (*core.Forest, error) {
	if r.Status != http.StatusOK {
		return nil, fmt.Errorf("proto: batch item (%s, %d, %d) failed with %d: %s",
			r.Region, r.PrivacyLevel, r.Delta, r.Status, r.Error)
	}
	switch {
	case r.ForestV2 != nil:
		return DecodeForestV2(tree, r.ForestV2)
	case r.Forest != nil:
		return DecodeForest(tree, r.Forest)
	default:
		return nil, fmt.Errorf("proto: batch item (%s, %d, %d) has no forest payload",
			r.Region, r.PrivacyLevel, r.Delta)
	}
}

// DecodeForest reassembles a dense v1 response against the local tree.
func DecodeForest(tree *loctree.Tree, fr *ForestResponse) (*core.Forest, error) {
	forest := &core.Forest{
		PrivacyLevel: fr.PrivacyLevel,
		Delta:        fr.Delta,
		Entries:      map[loctree.NodeID]*core.ForestEntry{},
	}
	for _, wire := range fr.Entries {
		root := loctree.NodeID{Level: fr.PrivacyLevel, Coord: hexgrid.Coord{Q: wire.RootQ, R: wire.RootR}}
		if !tree.Contains(root) {
			return nil, fmt.Errorf("proto: entry root %v not in tree", root)
		}
		if len(wire.Rows) != len(wire.Leaves) {
			return nil, fmt.Errorf("proto: entry %v has %d rows for %d leaves", root, len(wire.Rows), len(wire.Leaves))
		}
		m, err := matrixFromRows(wire.Rows)
		if err != nil {
			return nil, fmt.Errorf("proto: entry %v: %w", root, err)
		}
		leaves := make([]loctree.NodeID, len(wire.Leaves))
		for i, qr := range wire.Leaves {
			leaves[i] = loctree.NodeID{Level: 0, Coord: hexgrid.Coord{Q: qr[0], R: qr[1]}}
			if !tree.Contains(leaves[i]) {
				return nil, fmt.Errorf("proto: entry %v leaf %v not in tree", root, leaves[i])
			}
		}
		forest.Entries[root] = &core.ForestEntry{Root: root, Leaves: leaves, Matrix: m}
	}
	return forest, nil
}

func (c *Client) getJSON(path string, v interface{}) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	defer drainBody(resp.Body)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("proto: server returned %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// matrixFromRows validates and builds a wire matrix.
func matrixFromRows(rows [][]float64) (*obf.Matrix, error) {
	m, err := obf.FromRows(rows)
	if err != nil {
		return nil, err
	}
	if err := m.CheckStochastic(1e-6); err != nil {
		return nil, err
	}
	return m, nil
}
