package proto

// This file is the HTTP face of the draw-lease pipeline (POST /v1/lease):
// the JSON mirror of registry.Lease. Token and bundle travel as base64
// (encoding/json's native []byte form); the bundle's weights stay exact —
// base64 wraps the binary codec, it never re-encodes floats. Budget
// rejections answer 429 with the user's live headroom in the
// X-Corgi-Eps-Remaining header (the JSON-free analogue of the stream
// transport's eps_remaining ERROR-frame field); bad tokens answer 403.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"corgi/internal/hexgrid"
	"corgi/internal/policy"
	"corgi/internal/registry"
)

// epsRemainingHeader carries the user's live epsilon headroom on
// 429-rejected lease and report requests.
const epsRemainingHeader = "X-Corgi-Eps-Remaining"

// LeaseRequest asks for a client-side draw lease: a report request plus
// the draw cap to pre-pay and an optional renewal token.
type LeaseRequest struct {
	Region string `json:"region,omitempty"`
	// Cell is the axial (q, r) coordinate of the true leaf cell.
	Cell [2]int `json:"cell"`
	UID  int64  `json:"uid,omitempty"`
	policy.Policy
	Seed int64 `json:"seed,omitempty"`
	// Draws is the draw cap to pre-pay (default 1, bounded by the
	// handler's MaxReportCount — the same limit as /v1/report).
	Draws int `json:"draws,omitempty"`
	// Token renews a previous lease (base64 on the wire).
	Token []byte `json:"token,omitempty"`
}

// LeaseResponse is an issued lease: the signed token, the encoded bundle,
// and the customization facts a report response would carry.
type LeaseResponse struct {
	Region         string `json:"region"`
	PrecisionLevel int    `json:"precision_l"`
	SubtreeRoot    [2]int `json:"subtree_root"`
	Pruned         int    `json:"pruned"`
	Reanchored     bool   `json:"reanchored,omitempty"`
	// Budgeted / EpsSpent / EpsRemaining mirror ReportResponse, except the
	// spend covers the whole pre-paid draw cap in one charge.
	Budgeted     bool    `json:"budgeted,omitempty"`
	EpsSpent     float64 `json:"eps_spent,omitempty"`
	EpsRemaining float64 `json:"eps_remaining,omitempty"`
	Degraded     bool    `json:"degraded,omitempty"`
	// DrawCap is the granted cap; RNGPos the stream position the leased
	// window starts at; ExpiresUnixMs the token expiry.
	DrawCap       int    `json:"draw_cap"`
	RNGPos        uint64 `json:"rng_pos"`
	ExpiresUnixMs int64  `json:"expires_unix_ms"`
	Renewed       bool   `json:"renewed,omitempty"`
	// Token is the signed lease token; Bundle the encoded lease bundle
	// (clientdraw.Open consumes both). Base64 on the wire.
	Token  []byte `json:"token"`
	Bundle []byte `json:"bundle"`
}

// leaseResponse converts a registry grant to its wire form.
func leaseResponse(g *registry.LeaseGrant) *LeaseResponse {
	return &LeaseResponse{
		Region:         g.Region,
		PrecisionLevel: g.PrecisionLevel,
		SubtreeRoot:    [2]int{g.SubtreeRoot.Coord.Q, g.SubtreeRoot.Coord.R},
		Pruned:         g.Pruned,
		Reanchored:     g.Reanchored,
		Budgeted:       g.Budgeted,
		EpsSpent:       g.EpsSpent,
		EpsRemaining:   g.EpsRemaining,
		Degraded:       g.Degraded,
		DrawCap:        g.DrawCap,
		RNGPos:         g.RNGPos,
		ExpiresUnixMs:  g.ExpiresAt,
		Renewed:        g.Renewed,
		Token:          g.Token,
		Bundle:         g.Bundle,
	}
}

// handleLease serves POST /v1/lease: issue (or renew) a client-side draw
// lease. The draw cap respects the same MaxReportCount limit as
// /v1/report(+s) — a count the report routes would refuse is refused here.
func (h *MultiHandler) handleLease(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req LeaseRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Region == "" {
		req.Region = r.URL.Query().Get("region")
	}
	maxCount := h.MaxReportCount
	if maxCount <= 0 {
		maxCount = DefaultMaxReportCount
	}
	if req.Draws > maxCount {
		http.Error(w, fmt.Sprintf("count %d exceeds limit %d", req.Draws, maxCount),
			http.StatusUnprocessableEntity)
		return
	}
	ctx, cancel := h.requestCtx(r)
	defer cancel()
	grant, err := h.handler().Lease(ctx, registry.LeaseRequest{
		Region: req.Region,
		Cell:   hexgrid.Coord{Q: req.Cell[0], R: req.Cell[1]},
		UID:    req.UID,
		Policy: req.Policy,
		Seed:   req.Seed,
		Draws:  req.Draws,
		Token:  req.Token,
	})
	if err != nil {
		status, msg := reportErrStatus(err)
		if rem, ok := registry.BudgetRemaining(err); ok {
			w.Header().Set(epsRemainingHeader, strconv.FormatFloat(rem, 'g', -1, 64))
		}
		http.Error(w, msg, status)
		return
	}
	writeJSONPooled(w, r, leaseResponse(grant))
}

// LeaseError is a structured non-200 outcome of Client.Lease, preserving
// the HTTP status and — on 429 budget rejections — the user's live
// epsilon headroom from the X-Corgi-Eps-Remaining header.
type LeaseError struct {
	Status int
	Msg    string
	// EpsRemaining is the user's window headroom; valid when
	// HasEpsRemaining (budget rejections only).
	EpsRemaining    float64
	HasEpsRemaining bool
}

// Error formats the failure with its HTTP status.
func (e *LeaseError) Error() string {
	return fmt.Sprintf("proto: lease refused with status %d: %s", e.Status, e.Msg)
}

// Lease requests (or renews) a client-side draw lease. Non-200 responses
// return a *LeaseError carrying the status and, for budget rejections,
// the eps_remaining headroom.
func (c *Client) Lease(req LeaseRequest) (*LeaseResponse, error) {
	if req.Region == "" {
		req.Region = c.region
	}
	data, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Post(c.base+"/v1/lease", "application/json", bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	defer drainBody(resp.Body)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		le := &LeaseError{Status: resp.StatusCode, Msg: string(msg)}
		if v := resp.Header.Get(epsRemainingHeader); v != "" {
			if rem, err := strconv.ParseFloat(v, 64); err == nil {
				le.EpsRemaining, le.HasEpsRemaining = rem, true
			}
		}
		return nil, le
	}
	var lr LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		return nil, err
	}
	return &lr, nil
}
