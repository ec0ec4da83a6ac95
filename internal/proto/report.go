package proto

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"corgi/internal/hexgrid"
	"corgi/internal/policy"
	"corgi/internal/registry"
)

// DefaultMaxReportCount bounds how many draws one report request may ask
// for; a client wanting more batches requests. It aliases the
// registry-level constant so the HTTP, stream, and lease transports all
// enforce the same limit.
const DefaultMaxReportCount = registry.DefaultMaxReportCount

// ReportRequest asks the server to draw obfuscated reports directly: the
// true leaf cell, the inline customization policy (its fields flatten into
// the request object: privacy_l, precision_l, user_preferences), a user
// id, a seed, and a draw count.
//
// This is the trusted-serving mode of the report pipeline — the cell and
// the policy cross the wire, unlike the forest routes where only (privacy
// level, |S|) does. Clients that must keep the paper's Sec. 5 trust model
// keep using /v1/forest and sample locally; the wire format is shaped so
// the same (region, cell, policy, seed) replayed against a fresh server
// reproduces the local draw sequence exactly.
type ReportRequest struct {
	Region string `json:"region,omitempty"`
	// Cell is the axial (q, r) coordinate of the true leaf cell.
	Cell [2]int `json:"cell"`
	// UID partitions session state and metadata attributes between users.
	UID int64 `json:"uid,omitempty"`
	policy.Policy
	// Seed fixes the per-session RNG stream.
	Seed int64 `json:"seed,omitempty"`
	// Count is how many reports to draw (default 1, bounded by the
	// handler's MaxReportCount).
	Count int `json:"count,omitempty"`
}

// ReportedLocation is one drawn report: the node's axial coordinate and
// its center, ready for a location-based service.
type ReportedLocation struct {
	Q   int     `json:"q"`
	R   int     `json:"r"`
	Lat float64 `json:"lat"`
	Lng float64 `json:"lng"`
}

// ReportResponse carries the drawn reports plus the customization facts.
type ReportResponse struct {
	Region string `json:"region"`
	// PrecisionLevel is the tree level of every reported node.
	PrecisionLevel int `json:"precision_l"`
	// SubtreeRoot names the privacy-forest entry that served the draws.
	SubtreeRoot [2]int `json:"subtree_root"`
	// Pruned is how many locations the policy's preferences removed.
	Pruned  int                `json:"pruned"`
	Reports []ReportedLocation `json:"reports"`
	// Reanchored is true when this request moved the user's session onto a
	// different subtree (or preference anchor) — mobility clients and the
	// loadgen use it to measure re-anchor rates.
	Reanchored bool `json:"reanchored,omitempty"`
	// Budgeted is true when the server runs epsilon-budget accounting;
	// EpsSpent is what this request charged and EpsRemaining the user's
	// window headroom after it.
	Budgeted     bool    `json:"budgeted,omitempty"`
	EpsSpent     float64 `json:"eps_spent,omitempty"`
	EpsRemaining float64 `json:"eps_remaining,omitempty"`
	// Degraded is true when the reports were drawn from a planar-Laplace
	// fallback entry (degraded serving): the epsilon guarantee holds in
	// full, but utility is below the LP optimum until the background solve
	// replaces the fallback.
	Degraded bool `json:"degraded,omitempty"`
}

// BatchReportRequest draws for many users/cells in one round trip.
type BatchReportRequest struct {
	Items []ReportRequest `json:"items"`
}

// ReportItemResult is one batch item's outcome; items fail independently
// with per-item HTTP-equivalent statuses, mirroring /v1/forests.
type ReportItemResult struct {
	Status int             `json:"status"`
	Error  string          `json:"error,omitempty"`
	Report *ReportResponse `json:"report,omitempty"`
}

// BatchReportResponse is the batch envelope; HTTP 200 as long as the
// batch itself was well-formed.
type BatchReportResponse struct {
	Items []ReportItemResult `json:"items"`
}

// reportErrStatus maps a report-pipeline error to an HTTP status, shared
// by the single and batch paths. The classification lives in
// registry.ReportErrStatus so the binary stream transport answers from
// the identical table — a given failure is the same class on every wire.
func reportErrStatus(err error) (int, string) {
	return registry.ReportErrStatus(err)
}

// resolveReport translates one wire request into the registry pipeline.
func (h *MultiHandler) resolveReport(ctx context.Context, req ReportRequest) (*ReportResponse, int, string) {
	maxCount := h.MaxReportCount
	if maxCount <= 0 {
		maxCount = DefaultMaxReportCount
	}
	if req.Count > maxCount {
		return nil, http.StatusUnprocessableEntity,
			fmt.Sprintf("count %d exceeds limit %d", req.Count, maxCount)
	}
	res, err := h.handler().Report(ctx, registry.ReportRequest{
		Region: req.Region,
		Cell:   hexgrid.Coord{Q: req.Cell[0], R: req.Cell[1]},
		UID:    req.UID,
		Policy: req.Policy,
		Seed:   req.Seed,
		Count:  req.Count,
	})
	if err != nil {
		status, msg := reportErrStatus(err)
		return nil, status, msg
	}
	defer res.Release()
	resp := &ReportResponse{
		Region:         res.Region,
		PrecisionLevel: res.PrecisionLevel,
		SubtreeRoot:    [2]int{res.SubtreeRoot.Coord.Q, res.SubtreeRoot.Coord.R},
		Pruned:         res.Pruned,
		Reports:        make([]ReportedLocation, len(res.Reports)),
		Reanchored:     res.Reanchored,
		Budgeted:       res.Budgeted,
		EpsSpent:       res.EpsSpent,
		EpsRemaining:   res.EpsRemaining,
		Degraded:       res.Degraded,
	}
	for i, n := range res.Reports {
		c := res.Centers[i]
		resp.Reports[i] = ReportedLocation{Q: n.Coord.Q, R: n.Coord.R, Lat: c.Lat, Lng: c.Lng}
	}
	return resp, http.StatusOK, ""
}

// handleReport serves POST /v1/report: one user's draws. The region rides
// in the body (or ?region= as a fallback, matching the other routes).
func (h *MultiHandler) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req ReportRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Region == "" {
		req.Region = r.URL.Query().Get("region")
	}
	ctx, cancel := h.requestCtx(r)
	defer cancel()
	resp, status, msg := h.resolveReport(ctx, req)
	if status != http.StatusOK {
		http.Error(w, msg, status)
		return
	}
	writeJSONPooled(w, r, resp)
}

// handleReports serves POST /v1/reports: a batch of report draws with
// per-item statuses, fanned out concurrently like /v1/forests — each
// shard's engine still bounds its own solve concurrency and the session
// managers serialize per-session draws.
func (h *MultiHandler) handleReports(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req BatchReportRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 4<<20)).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	maxBatch := h.MaxBatch
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	if len(req.Items) == 0 {
		http.Error(w, "batch has no items", http.StatusBadRequest)
		return
	}
	if len(req.Items) > maxBatch {
		http.Error(w, fmt.Sprintf("batch of %d items exceeds limit %d", len(req.Items), maxBatch),
			http.StatusRequestEntityTooLarge)
		return
	}
	ctx, cancel := h.requestCtx(r)
	defer cancel()

	resp := BatchReportResponse{Items: make([]ReportItemResult, len(req.Items))}
	var wg sync.WaitGroup
	for i, item := range req.Items {
		wg.Add(1)
		go func(i int, item ReportRequest) {
			defer wg.Done()
			rep, status, msg := h.resolveReport(ctx, item)
			resp.Items[i] = ReportItemResult{Status: status, Error: msg, Report: rep}
		}(i, item)
	}
	wg.Wait()
	writeJSONPooled(w, r, resp)
}

// Report draws obfuscated reports from the server-side pipeline. A client
// with a bound region (NewRegionClient) fills an empty request Region.
func (c *Client) Report(req ReportRequest) (*ReportResponse, error) {
	if req.Region == "" {
		req.Region = c.region
	}
	var resp ReportResponse
	if err := c.postJSON("/v1/report", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ReportBatch draws for many requests in one POST /v1/reports round trip;
// per-item outcomes come back in request order with their own statuses.
// The caller's slice is not modified: a bound region fills empty item
// regions on a copy (matching FetchForestBatch's no-mutation contract).
func (c *Client) ReportBatch(items []ReportRequest) (*BatchReportResponse, error) {
	sent := items
	if c.region != "" {
		sent = append([]ReportRequest(nil), items...)
		for i := range sent {
			if sent[i].Region == "" {
				sent[i].Region = c.region
			}
		}
	}
	var resp BatchReportResponse
	if err := c.postJSON("/v1/reports", BatchReportRequest{Items: sent}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// postJSON posts a JSON body and decodes a JSON response. Every return
// path fully drains the response body first, so the keep-alive connection
// goes back to the transport's pool instead of being torn down — without
// the drain, error responses and decoder-trailing bytes force a fresh TCP
// connection per affected request.
func (c *Client) postJSON(path string, body, v interface{}) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(data))
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
