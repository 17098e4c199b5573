package vpart_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"vpart"
	"vpart/internal/randgen"
)

// TestSessionIngestor drives the public streaming path end to end: a session
// over a YCSB stream base, batched event ingestion, a forced epoch flush and
// a warm re-solve over the folded workload.
func TestSessionIngestor(t *testing.T) {
	ctx := context.Background()
	stream, err := randgen.NewYCSB(randgen.YCSBParams{Shapes: 20_000, HotShapes: 1024}, 4)
	if err != nil {
		t.Fatalf("NewYCSB: %v", err)
	}
	sess, err := vpart.NewSession(stream.Base(), vpart.Options{Sites: 3, Solver: "sa", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Resolve(ctx); err != nil {
		t.Fatalf("cold resolve: %v", err)
	}

	cfg := vpart.DefaultIngestConfig()
	cfg.EpochEvents = 30_000
	cfg.TopK = 64
	cfg.SketchWidth = 1 << 12
	ing, err := sess.NewIngestor(cfg)
	if err != nil {
		t.Fatalf("NewIngestor: %v", err)
	}
	defer ing.Close()

	batch := make([]vpart.QueryEvent, 10_000)
	var applied int
	for i := 0; i < 7; i++ { // 70k events → 2 full epochs
		stream.Fill(batch)
		epochs, err := ing.Ingest(batch)
		if err != nil {
			t.Fatalf("Ingest batch %d: %v", i, err)
		}
		applied += len(epochs)
	}
	if applied != 2 {
		t.Fatalf("completed epochs = %d, want 2", applied)
	}
	ep, err := ing.FlushEpoch()
	if err != nil {
		t.Fatalf("FlushEpoch: %v", err)
	}
	if ep == nil || ep.Seq != 3 {
		t.Fatalf("flushed epoch = %+v, want seq 3", ep)
	}
	if ep2, err := ing.FlushEpoch(); err != nil || ep2 != nil {
		t.Fatalf("second flush = (%v, %v), want (nil, nil)", ep2, err)
	}

	stats := ing.Stats()
	if stats.Events != 70_000 || stats.Epochs != 3 {
		t.Fatalf("stats = %+v, want 70000 events / 3 epochs", stats)
	}
	if stats.Tracked == 0 || stats.Adds == 0 || stats.StateBytes <= 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}

	// The session's instance now carries the heavy hitters.
	if err := sess.Instance().Validate(); err != nil {
		t.Fatalf("folded instance invalid: %v", err)
	}
	nq := 0
	for _, tx := range sess.Instance().Workload.Transactions {
		nq += len(tx.Queries)
	}
	if nq <= 1 {
		t.Fatalf("folded instance has %d queries — no heavy hitters installed", nq)
	}

	// Warm re-solve over the folded workload.
	sol, rstats, err := sess.Resolve(ctx)
	if err != nil {
		t.Fatalf("warm resolve: %v", err)
	}
	if sol == nil || !rstats.Warm {
		t.Fatalf("warm resolve stats = %+v, want Warm", rstats)
	}
}

// TestIngestorSketchCostNearExact folds the same YCSB stream (seed 21) into
// two SA sessions on 4 sites and requires their warm re-solves to land within
// 5 % of each other. One session tracks a quarter of the shapes as heavy
// hitters. The other counts every shape exactly through the same fold path:
// a top-k wider than the shape universe never evicts, a wide sketch admits
// with (near-)true counts, and a vanishing scale tolerance re-emits every
// frequency. The full row is skipped under -short.
func TestIngestorSketchCostNearExact(t *testing.T) {
	for _, tc := range []struct {
		name           string
		full           bool
		shapes, events int
	}{
		{name: "2000-shapes", shapes: 2000, events: 1 << 16},
		{name: "4000-shapes", full: true, shapes: 4000, events: 1 << 18},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.full && testing.Short() {
				t.Skip("full configuration")
			}
			sketch := foldAndResolve(t, tc.shapes, tc.events, vpart.IngestConfig{
				Shards: 1, EpochEvents: 1 << 30, TopK: tc.shapes / 4,
				SketchWidth: 1 << 15, SketchDepth: 4, ScaleTol: 0.2,
			})
			exact := foldAndResolve(t, tc.shapes, tc.events, vpart.IngestConfig{
				Shards: 1, EpochEvents: 1 << 30, TopK: 2 * tc.shapes,
				SketchWidth: 1 << 18, SketchDepth: 4, ScaleTol: 1e-9,
			})
			if gap := math.Abs(sketch-exact) / exact; gap > 0.05 {
				t.Fatalf("sketch-folded solved cost %.6g is %.2f%% off the exact-count cost %.6g (gate: 5%%)",
					sketch, 100*gap, exact)
			}
		})
	}
}

// foldAndResolve anchors an SA session on a YCSB stream's base instance,
// folds events through an Ingestor with cfg in batches of 8192, flushes the
// epoch and returns the balanced cost of the warm re-solve.
func foldAndResolve(t *testing.T, shapes, events int, cfg vpart.IngestConfig) float64 {
	t.Helper()
	ctx := context.Background()
	stream, err := randgen.NewYCSB(randgen.YCSBParams{Shapes: shapes}, 21)
	if err != nil {
		t.Fatalf("NewYCSB: %v", err)
	}
	sess, err := vpart.NewSession(stream.Base(), vpart.Options{Sites: 4, Solver: "sa", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Resolve(ctx); err != nil {
		t.Fatalf("cold resolve: %v", err)
	}
	ing, err := sess.NewIngestor(cfg)
	if err != nil {
		t.Fatalf("NewIngestor: %v", err)
	}
	defer ing.Close()
	batch := make([]vpart.QueryEvent, 8192)
	for done := 0; done < events; done += len(batch) {
		stream.Fill(batch)
		if _, err := ing.Ingest(batch); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	if _, err := ing.FlushEpoch(); err != nil {
		t.Fatalf("FlushEpoch: %v", err)
	}
	sol, _, err := sess.Resolve(ctx)
	if err != nil {
		t.Fatalf("warm resolve: %v", err)
	}
	return sol.Cost.Balanced
}

// TestIngestorBreaksOnBadEvents: an event referencing a table the schema
// lacks fails the epoch apply and permanently breaks the ingestor, while the
// session itself stays usable.
func TestIngestorBreaksOnBadEvents(t *testing.T) {
	stream, err := randgen.NewYCSB(randgen.YCSBParams{Shapes: 1000, HotShapes: 64}, 8)
	if err != nil {
		t.Fatalf("NewYCSB: %v", err)
	}
	sess, err := vpart.NewSession(stream.Base(), vpart.Options{Sites: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := vpart.DefaultIngestConfig()
	cfg.EpochEvents = 1 << 20
	ing, err := sess.NewIngestor(cfg)
	if err != nil {
		t.Fatalf("NewIngestor: %v", err)
	}
	defer ing.Close()

	bad := []vpart.QueryEvent{{
		Txn: "ghost", Query: "q", Kind: vpart.Read,
		Accesses: []vpart.TableAccess{{Table: "no-such-table", Attributes: []string{"x"}, Rows: 1}},
	}}
	if _, err := ing.Ingest(bad); err != nil {
		t.Fatalf("Ingest of schema-invalid event should only fail at apply: %v", err)
	}
	if _, err := ing.FlushEpoch(); err == nil {
		t.Fatal("epoch referencing an unknown table applied cleanly")
	} else if !strings.Contains(err.Error(), "no-such-table") {
		t.Fatalf("apply error does not name the table: %v", err)
	}
	// Broken for good.
	if _, err := ing.Ingest(nil); err == nil {
		t.Fatal("broken ingestor accepted more events")
	}
	// The session survived: the failed delta was never half-applied.
	if err := sess.Instance().Validate(); err != nil {
		t.Fatalf("session instance corrupted by failed apply: %v", err)
	}
	if _, _, err := sess.Resolve(context.Background()); err != nil {
		t.Fatalf("session unusable after ingestor broke: %v", err)
	}
}
