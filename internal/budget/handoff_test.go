package budget

import (
	"errors"
	"math"
	"testing"
	"time"
)

// handoffPair builds two accountants (node A and node B) sharing a config
// and a controllable clock.
func handoffPair(t *testing.T, limit float64) (a, b *Accountant, now *time.Time) {
	t.Helper()
	base := time.Unix(1_700_000_000, 0)
	now = &base
	clock := func() time.Time { return *now }
	var err error
	if a, err = NewAccountant(Config{LimitEps: limit, Window: time.Hour, Now: clock}); err != nil {
		t.Fatal(err)
	}
	if b, err = NewAccountant(Config{LimitEps: limit, Window: time.Hour, Now: clock}); err != nil {
		t.Fatal(err)
	}
	return a, b, now
}

// TestHandoffMovesSpend: export moves the events out of A, import counts
// them on B, and the user's global spend is unchanged — the cap holds
// across the move with no double charge and no reset.
func TestHandoffMovesSpend(t *testing.T) {
	a, b, _ := handoffPair(t, 10)
	const uid = 42
	if _, err := a.Charge(uid, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Charge(uid, 2); err != nil {
		t.Fatal(err)
	}

	h := a.ExportHandoff(uid, "nodeA")
	if h == nil || h.Source != "nodeA" || h.Seq != 1 {
		t.Fatalf("export: %+v", h)
	}
	if got := h.Eps(); got != 5 {
		t.Fatalf("exported eps %v, want 5", got)
	}
	// The events left A's window immediately (move semantics).
	if spent := a.Spent(uid); spent != 0 {
		t.Fatalf("A still counts %v after export", spent)
	}

	applied, ok := b.ImportHandoff(uid, h)
	if !ok || applied != 5 {
		t.Fatalf("import applied %v ok=%v", applied, ok)
	}
	a.CommitHandoff(uid, h.Seq)
	if rem := b.Remaining(uid); rem != 5 {
		t.Fatalf("B remaining %v, want 5", rem)
	}
	// The cap now binds on B: 5 handed off + 5 fresh = the full limit,
	// and the next charge is refused.
	if _, err := b.Charge(uid, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Charge(uid, 1); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("over-cap charge after handoff: %v", err)
	}
}

// TestHandoffRollback: a failed forward restores the exported spend, so a
// user cannot mint budget by triggering transport failures.
func TestHandoffRollback(t *testing.T) {
	a, _, _ := handoffPair(t, 10)
	const uid = 7
	if _, err := a.Charge(uid, 6); err != nil {
		t.Fatal(err)
	}
	h := a.ExportHandoff(uid, "nodeA")
	if h == nil {
		t.Fatal("no handoff")
	}
	a.RollbackHandoff(uid, h.Seq)
	if spent := a.Spent(uid); spent != 6 {
		t.Fatalf("spend after rollback %v, want 6", spent)
	}
	// Rollback is idempotent; a second call must not double the spend.
	a.RollbackHandoff(uid, h.Seq)
	if spent := a.Spent(uid); spent != 6 {
		t.Fatalf("spend after duplicate rollback %v, want 6", spent)
	}
	if st := a.Stats(); st.HandoffsRolledBack != 1 {
		t.Fatalf("rollback counter %d", st.HandoffsRolledBack)
	}
}

// TestHandoffDedupe: redelivering the same handoff (same source+seq)
// applies once — the watermark makes forward retries safe.
func TestHandoffDedupe(t *testing.T) {
	a, b, _ := handoffPair(t, 10)
	const uid = 9
	if _, err := a.Charge(uid, 4); err != nil {
		t.Fatal(err)
	}
	h := a.ExportHandoff(uid, "nodeA")
	if applied, ok := b.ImportHandoff(uid, h); !ok || applied != 4 {
		t.Fatalf("first import: %v %v", applied, ok)
	}
	if _, ok := b.ImportHandoff(uid, h); ok {
		t.Fatal("duplicate import applied")
	}
	if spent := b.Spent(uid); spent != 4 {
		t.Fatalf("spend after duplicate delivery %v, want 4", spent)
	}
	if st := b.Stats(); st.HandoffDupes != 1 || st.HandoffsImported != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if wm := b.HandoffsApplied(uid, "nodeA"); wm != 1 {
		t.Fatalf("watermark %d", wm)
	}
	// Distinct sources keep independent watermarks.
	h2 := &Handoff{Source: "nodeC", Seq: 1, Events: h.Events}
	if applied, ok := b.ImportHandoff(uid, h2); !ok || applied != 4 {
		t.Fatalf("import from second source: %v %v", applied, ok)
	}
}

// TestHandoffExpiry: handoffs carry event timestamps, so imported spend
// slides out of the receiver's window exactly when it would have expired
// on the exporter.
func TestHandoffExpiry(t *testing.T) {
	a, b, now := handoffPair(t, 10)
	const uid = 3
	if _, err := a.Charge(uid, 5); err != nil {
		t.Fatal(err)
	}
	h := a.ExportHandoff(uid, "nodeA")
	*now = now.Add(30 * time.Minute)
	if applied, ok := b.ImportHandoff(uid, h); !ok || applied != 5 {
		t.Fatalf("mid-window import: %v %v", applied, ok)
	}
	if spent := b.Spent(uid); spent != 5 {
		t.Fatalf("spend mid-window %v", spent)
	}
	*now = now.Add(31 * time.Minute) // past the 1h window from charge time
	if spent := b.Spent(uid); spent != 0 {
		t.Fatalf("imported spend did not expire: %v", spent)
	}

	// A handoff whose events are all already expired imports as zero.
	if _, err := a.Charge(uid, 2); err != nil {
		t.Fatal(err)
	}
	h2 := a.ExportHandoff(uid, "nodeA")
	*now = now.Add(2 * time.Hour)
	if applied, ok := b.ImportHandoff(uid, h2); !ok || applied != 0 {
		t.Fatalf("expired import applied %v ok=%v", applied, ok)
	}
}

// TestHandoffNothingToExport: a user with no live spend produces no
// handoff — the forward path stays zero-overhead for fresh users.
func TestHandoffNothingToExport(t *testing.T) {
	a, _, now := handoffPair(t, 10)
	if h := a.ExportHandoff(1, "nodeA"); h != nil {
		t.Fatalf("export for untouched user: %+v", h)
	}
	if _, err := a.Charge(1, 2); err != nil {
		t.Fatal(err)
	}
	*now = now.Add(2 * time.Hour)
	if h := a.ExportHandoff(1, "nodeA"); h != nil {
		t.Fatalf("export of fully expired spend: %+v", h)
	}
}

// TestHandoffRejectsForgedEvents: a handoff with any event that would
// lower the user's spend (negative or NaN epsilon) or poison it (infinite
// epsilon) is refused whole. The window and the (source, seq) watermark
// are untouched, so the legitimate handoff with the same seq still
// applies afterwards.
func TestHandoffRejectsForgedEvents(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	good := HandoffEvent{AtUnixNano: base.UnixNano(), Eps: 2}
	cases := []struct {
		name string
		bad  HandoffEvent
	}{
		{"negative", HandoffEvent{AtUnixNano: base.UnixNano(), Eps: -1000}},
		{"NaN", HandoffEvent{AtUnixNano: base.UnixNano(), Eps: math.NaN()}},
		{"+Inf", HandoffEvent{AtUnixNano: base.UnixNano(), Eps: math.Inf(1)}},
		{"-Inf", HandoffEvent{AtUnixNano: base.UnixNano(), Eps: math.Inf(-1)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, b, _ := handoffPair(t, 10)
			const uid = 5
			if _, ok := b.ImportHandoff(uid, &Handoff{Source: "nodeA", Seq: 1, Events: []HandoffEvent{good}}); !ok {
				t.Fatal("legitimate import refused")
			}
			forged := &Handoff{Source: "nodeA", Seq: 2, Events: []HandoffEvent{good, c.bad}}
			if applied, ok := b.ImportHandoff(uid, forged); ok || applied != 0 {
				t.Fatalf("forged import applied %v ok=%v", applied, ok)
			}
			if spent := b.Spent(uid); spent != 2 {
				t.Fatalf("spend after rejected import %v, want 2", spent)
			}
			if wm := b.HandoffsApplied(uid, "nodeA"); wm != 1 {
				t.Fatalf("watermark moved to %d by a rejected import", wm)
			}
			st := b.Stats()
			if st.HandoffsRejected != 1 || st.HandoffsImported != 1 || st.HandoffDupes != 0 {
				t.Fatalf("stats: %+v", st)
			}
			if applied, ok := b.ImportHandoff(uid, &Handoff{Source: "nodeA", Seq: 2, Events: []HandoffEvent{good}}); !ok || applied != 2 {
				t.Fatalf("legitimate import after a rejection: %v %v", applied, ok)
			}
		})
	}
}

// TestHandoffAcceptsBoundaryEvents: zero epsilon and a stamp exactly one
// Resolution ahead (the latest bucket end an exporter can stamp) are
// legitimate.
func TestHandoffAcceptsBoundaryEvents(t *testing.T) {
	_, b, now := handoffPair(t, 10)
	h := &Handoff{Source: "nodeA", Seq: 1, Events: []HandoffEvent{
		{AtUnixNano: now.UnixNano(), Eps: 0},
		{AtUnixNano: now.Add(time.Second).UnixNano(), Eps: 3},
	}}
	if applied, ok := b.ImportHandoff(1, h); !ok || applied != 3 {
		t.Fatalf("boundary import: %v %v", applied, ok)
	}
	if st := b.Stats(); st.HandoffsRejected != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestHandoffClampsFutureStamps: an event stamped far ahead of the
// importer's clock is merged with its stamp clamped to one Resolution
// ahead, so its spend counts but it cannot stay in the window longer than
// an event charged now.
func TestHandoffClampsFutureStamps(t *testing.T) {
	_, b, now := handoffPair(t, 10)
	const uid = 11
	h := &Handoff{Source: "nodeA", Seq: 1, Events: []HandoffEvent{
		{AtUnixNano: now.Add(1000 * time.Hour).UnixNano(), Eps: 4},
	}}
	if applied, ok := b.ImportHandoff(uid, h); !ok || applied != 4 {
		t.Fatalf("future-stamped import: %v %v", applied, ok)
	}
	if st := b.Stats(); st.HandoffsRejected != 0 || st.HandoffsImported != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// The clamped stamp is now+Resolution (1s by default), so the spend
	// expires one window after it, not one window after the forged stamp.
	*now = now.Add(time.Hour)
	if spent := b.Spent(uid); spent != 4 {
		t.Fatalf("spend before the clamped expiry %v, want 4", spent)
	}
	*now = now.Add(time.Second)
	if spent := b.Spent(uid); spent != 0 {
		t.Fatalf("clamped spend did not expire: %v", spent)
	}
}

// TestHandoffSkewedClocks: the importer's clock runs a few ms behind the
// exporter's, and the exporter charged in the first ms of a bucket, so
// the exported bucket-end stamp lies more than one Resolution ahead of
// the importer's now. The handoff must still apply: once the exporter
// commits, the importer is the only node counting that spend.
func TestHandoffSkewedClocks(t *testing.T) {
	bucket := time.Unix(1_700_000_000, 0)
	exporterNow := bucket.Add(time.Millisecond)
	importerNow := exporterNow.Add(-5 * time.Millisecond)
	a, err := NewAccountant(Config{LimitEps: 10, Window: time.Hour, Now: func() time.Time { return exporterNow }})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewAccountant(Config{LimitEps: 10, Window: time.Hour, Now: func() time.Time { return importerNow }})
	if err != nil {
		t.Fatal(err)
	}
	const uid = 13
	if _, err := a.Charge(uid, 6); err != nil {
		t.Fatal(err)
	}
	h := a.ExportHandoff(uid, "nodeA")
	if h == nil {
		t.Fatal("no handoff")
	}
	if latest := importerNow.Add(time.Second).UnixNano(); h.Events[0].AtUnixNano <= latest {
		t.Fatalf("stamp %d not ahead of the importer's now+Resolution %d", h.Events[0].AtUnixNano, latest)
	}
	if applied, ok := b.ImportHandoff(uid, h); !ok || applied != 6 {
		t.Fatalf("skewed import: %v %v", applied, ok)
	}
	a.CommitHandoff(uid, h.Seq)
	if got := a.Spent(uid) + b.Spent(uid); got != 6 {
		t.Fatalf("spend across both nodes after commit %v, want 6", got)
	}
	if _, err := b.Charge(uid, 5); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("over-cap charge after a skewed handoff: %v", err)
	}
	if st := b.Stats(); st.HandoffsRejected != 0 {
		t.Fatalf("stats: %+v", st)
	}
}
