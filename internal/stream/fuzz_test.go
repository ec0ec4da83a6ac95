package stream

import (
	"bytes"
	"math"
	"testing"

	"corgi/internal/budget"
	"corgi/internal/policy"
	"corgi/internal/registry"
)

// FuzzStreamRequest feeds arbitrary payloads to the decoders behind every
// client-to-server request frame, parsed exactly as the server parses
// them: REPORT (reqID + one request), REPORTS (reqID + count + items) and
// LEASE (reqID + request + draw cap + token). No input may panic, and any
// payload that decodes must re-encode to bytes that decode to an equal
// request.
func FuzzStreamRequest(f *testing.F) {
	req := Request{
		Region: "ra",
		Cell:   [2]int{-3, 7},
		UID:    42,
		Policy: policy.Policy{
			PrivacyLevel:   2,
			PrecisionLevel: 1,
			Preferences: []policy.Predicate{
				{Var: "home", Op: policy.OpNe, Val: policy.Bool(true)},
				{Var: "distance", Op: policy.OpLe, Val: policy.Number(5.5)},
				{Var: "kind", Op: policy.OpEq, Val: policy.String("bar")},
			},
		},
		Seed:  -9,
		Count: 3,
	}
	forwarded := req
	forwarded.Forwarded = true
	forwarded.Handoff = &budget.Handoff{Source: "10.0.0.1:7070", Seq: 3, Events: []budget.HandoffEvent{
		{AtUnixNano: 1_700_000_000_000_000_000, Eps: 1.5},
		{AtUnixNano: 1_700_000_001_000_000_000, Eps: 0.25},
	}}
	for _, r := range []*Request{&req, &forwarded} {
		f.Add(appendRequest(appendU32(nil, 1), r))
		f.Add(appendRequest(appendRequest(appendUvarints(appendU32(nil, 2), 2), r), &req))
		f.Add(appendLeaseReq(appendU32(nil, 3), r, 16, []byte("token")))
		f.Add(appendLeaseReq(appendU32(nil, 4), r, 0, nil))
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		// REPORT
		d := decoder{b: payload}
		d.u32()
		if got, err := d.decodeRequest(nil); err == nil && d.done("REPORT") == nil {
			checkRequestRoundTrip(t, &got)
		}

		// REPORTS, with the server's batch bound checked before items.
		d = decoder{b: payload}
		d.u32()
		if n := d.uvarint(); d.err == nil && n > 0 && n <= registry.DefaultMaxBatch {
			items := make([]Request, 0, n)
			for i := uint64(0); i < n; i++ {
				it, err := d.decodeRequest(nil)
				if err != nil {
					break
				}
				items = append(items, it)
			}
			if uint64(len(items)) == n && d.done("REPORTS") == nil {
				for i := range items {
					checkRequestRoundTrip(t, &items[i])
				}
			}
		}

		// LEASE
		d = decoder{b: payload}
		d.u32()
		got, draws, token, err := d.decodeLeaseReq(nil)
		if err != nil || d.done("LEASE") != nil {
			return
		}
		enc := appendLeaseReq(nil, &got, draws, token)
		d = decoder{b: enc}
		again, draws2, token2, err := d.decodeLeaseReq(nil)
		if err == nil {
			err = d.done("LEASE")
		}
		if err != nil {
			t.Fatalf("re-encoded lease does not decode: %v", err)
		}
		if draws2 != draws || !bytes.Equal(token2, token) || !sameRequest(&got, &again) {
			t.Fatalf("lease round trip: %#v (%d, %q) -> %#v (%d, %q)", got, draws, token, again, draws2, token2)
		}
	})
}

// checkRequestRoundTrip re-encodes a decoded request and requires the
// bytes to decode, completely, to an equal request.
func checkRequestRoundTrip(t *testing.T, req *Request) {
	t.Helper()
	d := decoder{b: appendRequest(nil, req)}
	again, err := d.decodeRequest(nil)
	if err == nil {
		err = d.done("request")
	}
	if err != nil {
		t.Fatalf("re-encoded request does not decode: %v", err)
	}
	if !sameRequest(req, &again) {
		t.Fatalf("request round trip: %#v -> %#v", *req, again)
	}
}

// sameRequest compares requests field by field, floats by their bits (so
// a NaN preference or event equals itself). A handoff without events
// equals none: the encoder omits it, and the accountant ignores it.
func sameRequest(a, b *Request) bool {
	if a.Region != b.Region || a.Cell != b.Cell || a.UID != b.UID || a.Seed != b.Seed ||
		a.Count != b.Count || a.Forwarded != b.Forwarded ||
		a.PrivacyLevel != b.PrivacyLevel || a.PrecisionLevel != b.PrecisionLevel ||
		len(a.Preferences) != len(b.Preferences) {
		return false
	}
	for i, p := range a.Preferences {
		q := b.Preferences[i]
		if p.Var != q.Var || p.Op != q.Op || p.Val.Kind != q.Val.Kind || p.Val.S != q.Val.S ||
			math.Float64bits(p.Val.F) != math.Float64bits(q.Val.F) || p.Val.B != q.Val.B {
			return false
		}
	}
	ha, hb := a.Handoff, b.Handoff
	if ha == nil || len(ha.Events) == 0 || hb == nil || len(hb.Events) == 0 {
		return (ha == nil || len(ha.Events) == 0) && (hb == nil || len(hb.Events) == 0)
	}
	if ha.Source != hb.Source || ha.Seq != hb.Seq || len(ha.Events) != len(hb.Events) {
		return false
	}
	for i, e := range ha.Events {
		g := hb.Events[i]
		if e.AtUnixNano != g.AtUnixNano || math.Float64bits(e.Eps) != math.Float64bits(g.Eps) {
			return false
		}
	}
	return true
}
