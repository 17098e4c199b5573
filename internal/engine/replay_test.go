package engine

import (
	"context"
	"math/rand"
	"testing"

	"vpart/internal/core"
	"vpart/internal/ingest"
)

// tinyDegradedFixture is a two-attribute, two-transaction instance small
// enough to price by hand: t0 reads both attributes of tab, t1 writes both.
func tinyDegradedFixture(t *testing.T) *core.Model {
	t.Helper()
	inst := &core.Instance{Name: "tiny"}
	inst.Schema.Tables = []core.Table{{Name: "tab", Attributes: []core.Attribute{
		{Name: "a", Width: 8}, {Name: "b", Width: 4},
	}}}
	inst.Workload.Transactions = []core.Transaction{
		{Name: "t0", Queries: []core.Query{{
			Name: "r", Kind: core.Read, Frequency: 1,
			Accesses: []core.TableAccess{{Table: "tab", Attributes: []string{"a", "b"}, Rows: 1}},
		}}},
		{Name: "t1", Queries: []core.Query{{
			Name: "w", Kind: core.Write, Frequency: 1,
			Accesses: []core.TableAccess{{Table: "tab", Attributes: []string{"a", "b"}, Rows: 1}},
		}}},
	}
	m, err := core.NewModel(inst, core.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// splitLayout places attribute a on site 0 only and b on site 1 only, with
// both transactions homed on site 0 — b is readable only remotely, so the
// layout violates single-sitedness on purpose.
func splitLayout(m *core.Model) *core.Partitioning {
	p := core.NewPartitioning(m.NumTxns(), m.NumAttrs(), 2)
	p.AttrSites[0][0] = true
	p.AttrSites[1][1] = true
	return p
}

// TestReplayWorkloadConformance is the replayer's anchor to the analytic
// model: for feasible layouts with no down sites, ReplayWorkload's mark
// equals Evaluate byte for byte, and none of the degraded-path counters
// move.
func TestReplayWorkloadConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		inst := randomConformanceInstance(t, rng)
		m, err := core.NewModel(inst, core.DefaultModelOptions())
		if err != nil {
			t.Fatal(err)
		}
		sites := 1 + rng.Intn(4)
		p := randomFeasiblePartitioning(rng, m, sites)
		want := m.Evaluate(p)

		r := NewReplayer(4)
		if err := r.SetLayout(m, p); err != nil {
			t.Fatal(err)
		}
		if err := r.ReplayWorkload(context.Background()); err != nil {
			t.Fatal(err)
		}
		meas := r.Mark()
		requireExact(t, trial, &meas, want, 1)
		if meas.RemoteReadBytes != 0 || meas.Faults != 0 || meas.DegradedWrites != 0 {
			t.Fatalf("trial %d: degraded counters moved on a feasible layout: %+v", trial, meas)
		}
	}
}

// TestReplayMarkDeltas checks the per-epoch tap: each mark reports exactly
// one round, totals keep accumulating, and a SetLayout re-deploy in between
// does not lose the baseline.
func TestReplayMarkDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := randomConformanceInstance(t, rng)
	m, err := core.NewModel(inst, core.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := randomFeasiblePartitioning(rng, m, 3)
	want := m.Evaluate(p)

	r := NewReplayer(4)
	if err := r.SetLayout(m, p); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		if round == 3 {
			// Re-deploy the same layout mid-run: marks must be unaffected.
			if err := r.SetLayout(m, p); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.ReplayWorkload(context.Background()); err != nil {
			t.Fatal(err)
		}
		meas := r.Mark()
		requireExact(t, round, &meas, want, 1)
	}
	total := r.Total()
	requireExact(t, 99, &total, want, 3)
}

// TestReplayRemoteReadPricing prices a stale layout by hand: a read attribute
// missing at the primary site is served by its donor (donor read bytes +
// network transfer of the missing width), and writes fan out as usual.
func TestReplayRemoteReadPricing(t *testing.T) {
	m := tinyDegradedFixture(t)
	p := splitLayout(m)

	r := NewReplayer(4)
	if err := r.SetLayout(m, p); err != nil {
		t.Fatal(err)
	}
	if err := r.ReplayWorkload(context.Background()); err != nil {
		t.Fatal(err)
	}
	meas := r.Mark()
	// t0's read: local fraction (a, width 8) + donor read of b on site 1
	// (fraction width 4) + 4 bytes transferred.
	// t1's write: both fractions written (8+4) + written width of b shipped
	// to site 1 (4 bytes).
	if meas.ReadBytes != 12 || meas.RemoteReadBytes != 4 {
		t.Fatalf("ReadBytes=%v RemoteReadBytes=%v, want 12 and 4", meas.ReadBytes, meas.RemoteReadBytes)
	}
	if meas.WriteBytes != 12 {
		t.Fatalf("WriteBytes=%v, want 12", meas.WriteBytes)
	}
	if meas.TransferBytes != 8 {
		t.Fatalf("TransferBytes=%v, want 8", meas.TransferBytes)
	}
	wantPen := 12.0 + 12.0 + core.DefaultPenalty*8.0
	if meas.PenalisedCost != wantPen {
		t.Fatalf("PenalisedCost=%v, want %v", meas.PenalisedCost, wantPen)
	}
	if meas.Faults != 0 || meas.DegradedWrites != 0 {
		t.Fatalf("unexpected faults: %+v", meas)
	}
}

// TestReplaySiteDownFaults drives the failure hooks: a down donor surfaces a
// typed read fault, a down replica a degraded write, and a down primary site
// loses the whole transaction.
func TestReplaySiteDownFaults(t *testing.T) {
	m := tinyDegradedFixture(t)
	p := splitLayout(m)

	r := NewReplayer(4)
	if err := r.SetLayout(m, p); err != nil {
		t.Fatal(err)
	}
	if err := r.SetSiteDown(1, true); err != nil {
		t.Fatal(err)
	}
	if err := r.ReplayWorkload(context.Background()); err != nil {
		t.Fatal(err)
	}
	meas := r.Mark()
	// t0: a read locally (8 bytes), b unavailable (its only replica is
	// down). t1: the site-1 fan-out is skipped.
	if meas.ReadBytes != 8 || meas.WriteBytes != 8 || meas.TransferBytes != 0 {
		t.Fatalf("bytes = %v/%v/%v, want 8/8/0", meas.ReadBytes, meas.WriteBytes, meas.TransferBytes)
	}
	if meas.Faults != 1 || meas.DegradedWrites != 1 {
		t.Fatalf("Faults=%d DegradedWrites=%d, want 1 and 1", meas.Faults, meas.DegradedWrites)
	}
	tally := r.Faults()
	if tally.ReadUnavailable != 1 || tally.WriteSkipped != 1 || tally.TxnSiteDown != 0 {
		t.Fatalf("tally = %+v", tally)
	}

	// Now the primary site goes down too: both transactions are lost and
	// nothing further is measured.
	if err := r.SetSiteDown(0, true); err != nil {
		t.Fatal(err)
	}
	if err := r.ReplayWorkload(context.Background()); err != nil {
		t.Fatal(err)
	}
	meas = r.Mark()
	if meas.ReadBytes != 0 || meas.WriteBytes != 0 || meas.Faults != 2 {
		t.Fatalf("down-primary mark = %+v", meas)
	}
	if r.Faults().TxnSiteDown != 2 {
		t.Fatalf("tally = %+v", r.Faults())
	}

	// Recovery: both sites back up, the layout serves (degraded) again.
	if err := r.SetSiteDown(0, false); err != nil {
		t.Fatal(err)
	}
	if err := r.SetSiteDown(1, false); err != nil {
		t.Fatal(err)
	}
	if err := r.ReplayWorkload(context.Background()); err != nil {
		t.Fatal(err)
	}
	if meas = r.Mark(); meas.Faults != 0 || meas.ReadBytes != 12 {
		t.Fatalf("post-recovery mark = %+v", meas)
	}
}

// TestReplayEvents replays raw events at weight 1 and checks both the byte
// accounting and the error paths for unknown names.
func TestReplayEvents(t *testing.T) {
	m := tinyDegradedFixture(t)
	p := splitLayout(m)

	r := NewReplayer(4)
	if err := r.SetLayout(m, p); err != nil {
		t.Fatal(err)
	}
	events := []ingest.Event{
		{Txn: "t0", Query: "q1", Kind: core.Read,
			Accesses: []core.TableAccess{{Table: "tab", Attributes: []string{"a"}, Rows: 2}}},
		{Txn: "t1", Query: "q2", Kind: core.Write,
			Accesses: []core.TableAccess{{Table: "tab", Attributes: []string{"b"}, Rows: 1}}},
	}
	if err := r.Replay(events); err != nil {
		t.Fatal(err)
	}
	meas := r.Mark()
	// Event 1: 2 rows of the local (a) fraction = 16 bytes read, nothing
	// remote (b is not wanted). Event 2: both fractions written (8+4) and
	// b's width shipped to site 1.
	if meas.ReadBytes != 16 || meas.RemoteReadBytes != 0 {
		t.Fatalf("ReadBytes=%v RemoteReadBytes=%v, want 16 and 0", meas.ReadBytes, meas.RemoteReadBytes)
	}
	if meas.WriteBytes != 12 || meas.TransferBytes != 4 {
		t.Fatalf("WriteBytes=%v TransferBytes=%v, want 12 and 4", meas.WriteBytes, meas.TransferBytes)
	}
	if meas.Transactions != 2 {
		t.Fatalf("Transactions=%d, want 2", meas.Transactions)
	}

	if err := r.Replay([]ingest.Event{{Txn: "nope", Query: "q", Kind: core.Read}}); err == nil {
		t.Fatal("expected an unknown-transaction error")
	}
	if err := r.Replay([]ingest.Event{{Txn: "t0", Query: "q", Kind: core.Read,
		Accesses: []core.TableAccess{{Table: "nope", Rows: 1}}}}); err == nil {
		t.Fatal("expected an unknown-table error")
	}
}

// TestReplaySetLayoutErrors exercises the shape checks.
func TestReplaySetLayoutErrors(t *testing.T) {
	m := tinyDegradedFixture(t)
	r := NewReplayer(4)
	if err := r.Replay(nil); err == nil {
		t.Fatal("Replay before SetLayout must fail")
	}
	if err := r.SetSiteDown(0, true); err == nil {
		t.Fatal("SetSiteDown before SetLayout must fail")
	}

	// An attribute stored nowhere is a layout bug, not a degraded state.
	bad := core.NewPartitioning(m.NumTxns(), m.NumAttrs(), 2)
	bad.AttrSites[0][0] = true
	if err := r.SetLayout(m, bad); err == nil {
		t.Fatal("uncovered attribute must be rejected")
	}

	if err := r.SetLayout(m, splitLayout(m)); err != nil {
		t.Fatal(err)
	}
	// Site counts are fixed for a replayer's lifetime.
	three := core.NewPartitioning(m.NumTxns(), m.NumAttrs(), 3)
	for a := range three.AttrSites {
		three.AttrSites[a][0] = true
	}
	if err := r.SetLayout(m, three); err == nil {
		t.Fatal("site-count change must be rejected")
	}
	if err := r.SetSiteDown(5, true); err == nil {
		t.Fatal("out-of-range site must be rejected")
	}
}
