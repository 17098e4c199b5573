package vpart_test

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"vpart"
)

// tpccDelta is a plausible drift on TPC-C: the order pipeline heats up and
// the customer table grows a column.
func tpccDelta(t *testing.T, inst *vpart.Instance) vpart.WorkloadDelta {
	t.Helper()
	tx := inst.Workload.Transactions[0]
	q := tx.Queries[0]
	return vpart.WorkloadDelta{Ops: []vpart.DeltaOp{
		vpart.ScaleFreq{Txn: tx.Name, Query: q.Name, Factor: 3},
		vpart.AddQuery{
			Txn:   tx.Name,
			Query: vpart.NewRead("drift-scan", q.Accesses[0].Table, q.Accesses[0].Attributes, 4, 1),
		},
		vpart.AddAttr{
			Table: inst.Schema.Tables[len(inst.Schema.Tables)-1].Name,
			Attr:  vpart.Attribute{Name: "drift_col", Width: 8},
		},
	}}
}

// TestSessionApplyResolveRoundTrip drives a TPC-C session through a cold
// solve, a delta and a warm re-solve with a fixed seed, checking the
// incumbent chain, the stats and the instance bookkeeping.
func TestSessionApplyResolveRoundTrip(t *testing.T) {
	ctx := context.Background()
	inst := vpart.TPCC()
	sess, err := vpart.NewSession(inst, vpart.Options{Sites: 3, Solver: "sa", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Incumbent() != nil {
		t.Fatal("fresh session has an incumbent")
	}

	cold, coldStats, err := sess.Resolve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.Warm || coldStats.WarmStart || coldStats.Resolve != 1 || coldStats.DeltaOps != 0 {
		t.Errorf("cold stats: %+v", coldStats)
	}
	if len(coldStats.Trajectory) == 0 {
		t.Error("cold resolve recorded no cost trajectory")
	}
	if sess.Incumbent() != cold {
		t.Error("incumbent not installed")
	}

	delta := tpccDelta(t, inst)
	if err := sess.Apply(delta); err != nil {
		t.Fatal(err)
	}
	if sess.Pending() != len(delta.Ops) {
		t.Errorf("Pending = %d, want %d", sess.Pending(), len(delta.Ops))
	}
	// The session's instance must equal the plain ApplyDelta result.
	want, err := vpart.ApplyDelta(inst, delta)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := vpart.WriteInstance(&a, sess.Instance()); err != nil {
		t.Fatal(err)
	}
	if err := vpart.WriteInstance(&b, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("session instance diverges from ApplyDelta")
	}

	warm, warmStats, err := sess.Resolve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !warmStats.Warm || warmStats.Resolve != 2 || warmStats.DeltaOps != len(delta.Ops) {
		t.Errorf("warm stats: %+v", warmStats)
	}
	if !warmStats.WarmStart || !warm.WarmStart {
		t.Error("warm resolve with the sa solver did not come out of the warm path")
	}
	if warmStats.StaleCost.Objective <= 0 {
		t.Error("no stale-incumbent baseline recorded")
	}
	// The warm re-solve must not end worse than just keeping the stale
	// layout under the drifted workload.
	if warm.Cost.Balanced > warmStats.StaleCost.Balanced+1e-9 {
		t.Errorf("warm resolve %.6f worse than the stale incumbent %.6f",
			warm.Cost.Balanced, warmStats.StaleCost.Balanced)
	}
	if sess.Pending() != 0 {
		t.Errorf("Pending = %d after a successful resolve", sess.Pending())
	}
	if warm.Partitioning == nil || warm.Partitioning.Validate(warm.Model) != nil {
		t.Fatal("warm resolve returned an infeasible incumbent")
	}

	// Deterministic: an identical second session replays identically.
	sess2, err := vpart.NewSession(vpart.TPCC(), vpart.Options{Sites: 3, Solver: "sa", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess2.Resolve(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sess2.Apply(tpccDelta(t, vpart.TPCC())); err != nil {
		t.Fatal(err)
	}
	warm2, _, err := sess2.Resolve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if warm2.Cost.Objective != warm.Cost.Objective {
		t.Errorf("fixed-seed sessions disagree: %.6f vs %.6f", warm2.Cost.Objective, warm.Cost.Objective)
	}
}

// TestSessionRejectsBadConfigs covers constructor and Apply error paths.
func TestSessionRejectsBadConfigs(t *testing.T) {
	if _, err := vpart.NewSession(nil, vpart.Options{Sites: 2}); err == nil {
		t.Error("nil instance accepted")
	}
	if _, err := vpart.NewSession(vpart.TPCC(), vpart.Options{}); err == nil {
		t.Error("zero sites accepted")
	}
	if _, err := vpart.NewSession(vpart.TPCC(), vpart.Options{Sites: 2, Warm: &vpart.Solution{}}); err == nil {
		t.Error("caller-managed Warm accepted")
	}

	sess, err := vpart.NewSession(vpart.TPCC(), vpart.Options{Sites: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := vpart.WorkloadDelta{Ops: []vpart.DeltaOp{
		vpart.RemoveQuery{Txn: "no-such-txn", Query: "q"},
	}}
	if err := sess.Apply(bad); err == nil {
		t.Error("invalid delta accepted")
	}
	if sess.Pending() != 0 {
		t.Error("failed Apply left pending ops behind")
	}
}

// TestSessionDecomposeReusesShards drives a session with the decompose
// pipeline over a multi-component instance: a delta touching one component
// must leave the others reused.
func TestSessionDecomposeReusesShards(t *testing.T) {
	ctx := context.Background()
	inst, err := vpart.RandomInstance(vpart.MultiComponentClass(4, 16, 40, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := vpart.NewSession(inst, vpart.Options{
		Sites:      3,
		Solver:     "sa",
		Seed:       1,
		Preprocess: vpart.PreprocessDecompose,
	})
	if err != nil {
		t.Fatal(err)
	}
	cold, coldStats, err := sess.Resolve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.ShardsTotal < 4 || coldStats.ShardsReused != 0 {
		t.Fatalf("cold stats: %+v", coldStats)
	}

	// Touch exactly one transaction (and thereby one component).
	tx := inst.Workload.Transactions[0]
	q := tx.Queries[0]
	if err := sess.Apply(vpart.WorkloadDelta{Ops: []vpart.DeltaOp{
		vpart.ScaleFreq{Txn: tx.Name, Query: q.Name, Factor: 8},
	}}); err != nil {
		t.Fatal(err)
	}
	warm, warmStats, err := sess.Resolve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.ShardsTotal != coldStats.ShardsTotal {
		t.Errorf("shard count changed: %d -> %d", coldStats.ShardsTotal, warmStats.ShardsTotal)
	}
	if warmStats.ShardsReused != warmStats.ShardsTotal-1 {
		t.Errorf("reused %d of %d shards, want all but one", warmStats.ShardsReused, warmStats.ShardsTotal)
	}
	if warm.ShardsReused() != warmStats.ShardsReused {
		t.Errorf("Solution.ShardsReused %d != stats %d", warm.ShardsReused(), warmStats.ShardsReused)
	}
	if !strings.HasPrefix(string(warm.Algorithm), "decompose/") {
		t.Errorf("warm algorithm %q", warm.Algorithm)
	}
	_ = cold
}

// TestSessionResolveNoDeltasReusesEverything: resolving twice without any
// Apply must reuse every shard under the decompose pipeline.
func TestSessionResolveNoDeltasReusesEverything(t *testing.T) {
	ctx := context.Background()
	inst, err := vpart.RandomInstance(vpart.MultiComponentClass(3, 12, 24, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := vpart.NewSession(inst, vpart.Options{
		Sites: 2, Solver: "sa", Seed: 1, Preprocess: vpart.PreprocessDecompose,
	})
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := sess.Resolve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	second, stats, err := sess.Resolve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShardsReused != stats.ShardsTotal || stats.ShardsTotal == 0 {
		t.Errorf("no-delta resolve reused %d of %d shards", stats.ShardsReused, stats.ShardsTotal)
	}
	if second.Cost.Objective != first.Cost.Objective {
		t.Errorf("no-delta resolve changed the cost: %.6f -> %.6f", first.Cost.Objective, second.Cost.Objective)
	}
}

// TestSolveWarmPortfolioTagsWinner: the portfolio must race warm and cold
// children and tag the warm ones.
func TestSolveWarmPortfolioTagsWinner(t *testing.T) {
	ctx := context.Background()
	inst := vpart.TPCC()
	cold, err := vpart.Solve(ctx, inst, vpart.Options{Sites: 3, Solver: "sa", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var warmTagged, coldTagged atomic.Bool
	sol, err := vpart.Solve(ctx, inst, vpart.Options{
		Sites:     3,
		Solver:    "portfolio",
		Seed:      1,
		Warm:      cold,
		Portfolio: vpart.PortfolioOptions{SASeeds: 3, WarmSeeds: 1},
		Progress: func(e vpart.Event) {
			// Called concurrently from the portfolio's children.
			if strings.Contains(e.Solver, "sa+warm[") {
				warmTagged.Store(true)
			}
			if strings.Contains(e.Solver, "sa[") {
				coldTagged.Store(true)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !warmTagged.Load() || !coldTagged.Load() {
		t.Errorf("portfolio did not race both warm and cold children (warm %v, cold %v)",
			warmTagged.Load(), coldTagged.Load())
	}
	if sol.Cost.Balanced > cold.Cost.Balanced+1e-9 {
		t.Errorf("warm portfolio %.6f worse than its hint %.6f", sol.Cost.Balanced, cold.Cost.Balanced)
	}
	if strings.Contains(string(sol.Algorithm), "sa+warm") != sol.WarmStart {
		t.Errorf("WarmStart %v inconsistent with winner %q", sol.WarmStart, sol.Algorithm)
	}
}

// TestSolveWarmHintMismatchFallsBackCold: a hint for a different site count
// is ignored, not fatal.
func TestSolveWarmHintMismatchFallsBackCold(t *testing.T) {
	ctx := context.Background()
	inst := vpart.TPCC()
	hint, err := vpart.Solve(ctx, inst, vpart.Options{Sites: 2, Solver: "sa", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := vpart.Solve(ctx, inst, vpart.Options{Sites: 4, Solver: "sa", Seed: 1, Warm: hint})
	if err != nil {
		t.Fatal(err)
	}
	if sol.WarmStart {
		t.Error("mismatched hint still produced a warm start")
	}
	if sol.Partitioning == nil {
		t.Fatal("fallback cold solve failed")
	}
}

// TestSessionAdoptRejectsMismatchedSites covers the first Adopt edge case:
// an anchor with the wrong site count errors and leaves the incumbent
// untouched.
func TestSessionAdoptRejectsMismatchedSites(t *testing.T) {
	ctx := context.Background()
	inst := vpart.TPCC()
	sess, err := vpart.NewSession(inst, vpart.Options{Sites: 3, Solver: "sa", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	incumbent, _, err := sess.Resolve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := vpart.Solve(ctx, inst, vpart.Options{Sites: 2, Solver: "sa", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Adopt(wrong); err == nil {
		t.Fatal("anchor with a mismatched site count adopted")
	}
	if got := sess.Incumbent(); got != incumbent {
		t.Fatal("failed Adopt mutated the incumbent")
	}
	if sess.Pending() != 0 {
		t.Fatal("failed Adopt changed the delta bookkeeping")
	}
}

// TestSessionAdoptRejectsStaleDimensionsBeyondModel covers the second edge
// case: a partitioning larger than the session's (never-shrinking) model is
// rejected without mutation.
func TestSessionAdoptRejectsStaleDimensionsBeyondModel(t *testing.T) {
	ctx := context.Background()
	inst := vpart.TPCC()
	// A session over a *grown* instance can produce an anchor with more
	// attributes than a session over the base instance.
	grown, err := vpart.ApplyDelta(inst, tpccDelta(t, inst))
	if err != nil {
		t.Fatal(err)
	}
	bigger, err := vpart.Solve(ctx, grown, vpart.Options{Sites: 3, Solver: "sa", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := vpart.NewSession(inst, vpart.Options{Sites: 3, Solver: "sa", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	incumbent, _, err := sess.Resolve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Adopt(bigger); err == nil {
		t.Fatal("anchor over larger dimensions adopted (dimensions cannot shrink)")
	}
	if got := sess.Incumbent(); got != incumbent {
		t.Fatal("failed Adopt mutated the incumbent")
	}

	// The legitimate direction — an anchor that predates delta-grown
	// dimensions — still adopts: stale anchors are adapted, not rejected.
	sess2, err := vpart.NewSession(grown, vpart.Options{Sites: 3, Solver: "sa", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	stale, err := vpart.Solve(ctx, inst, vpart.Options{Sites: 3, Solver: "sa", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess2.Adopt(stale); err != nil {
		t.Fatalf("stale-but-adaptable anchor rejected: %v", err)
	}
}

// TestSessionAdoptRejectsConstraintViolatingAnchor covers the new edge case:
// an anchor violating the session's placement constraints errors without
// mutating the incumbent, while a conforming anchor adopts.
func TestSessionAdoptRejectsConstraintViolatingAnchor(t *testing.T) {
	ctx := context.Background()
	inst := vpart.TPCC()
	txn := inst.Workload.Transactions[0].Name
	cons := &vpart.Constraints{PinTxns: []vpart.PinTxn{{Txn: txn, Site: 1}}}
	sess, err := vpart.NewSession(inst, vpart.Options{Sites: 3, Solver: "sa", Seed: 1, Constraints: cons})
	if err != nil {
		t.Fatal(err)
	}
	incumbent, _, err := sess.Resolve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := cons.Check(incumbent.Model, incumbent.Partitioning); err != nil {
		t.Fatalf("session resolve ignored its constraints: %v", err)
	}

	// An unconstrained solve parks the pinned transaction elsewhere: such an
	// anchor must be rejected, not silently repaired into compliance.
	violating, err := vpart.Solve(ctx, inst, vpart.Options{Sites: 3, Solver: "sa", Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	ti, _ := violating.Model.TxnIndex(txn)
	if violating.Partitioning.TxnSite[ti] == 1 {
		violating.Partitioning.TxnSite[ti] = 0 // force the violation
	}
	if err := sess.Adopt(violating); err == nil {
		t.Fatal("constraint-violating anchor adopted")
	} else if !strings.Contains(err.Error(), "constraint") {
		t.Fatalf("unexpected rejection reason: %v", err)
	}
	if got := sess.Incumbent(); got != incumbent {
		t.Fatal("failed Adopt mutated the incumbent")
	}

	// A conforming anchor adopts fine.
	conforming, err := vpart.Solve(ctx, inst, vpart.Options{Sites: 3, Solver: "sa", Seed: 42, Constraints: cons})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Adopt(conforming); err != nil {
		t.Fatalf("conforming anchor rejected: %v", err)
	}
}

// TestSessionResolveReportsWarmRejected checks that the warm-rejection
// reason of the facade surfaces in the resolve stats.
func TestSessionResolveReportsWarmRejected(t *testing.T) {
	ctx := context.Background()
	inst := vpart.TPCC()
	sess, err := vpart.NewSession(inst, vpart.Options{Sites: 3, Solver: "sa", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, stats, err := sess.Resolve(ctx); err != nil {
		t.Fatal(err)
	} else if stats.WarmRejected != "" {
		t.Fatalf("cold first resolve carries a warm rejection: %q", stats.WarmRejected)
	}
	if err := sess.Apply(tpccDelta(t, inst)); err != nil {
		t.Fatal(err)
	}
	if _, stats, err := sess.Resolve(ctx); err != nil {
		t.Fatal(err)
	} else if !stats.Warm || stats.WarmRejected != "" {
		t.Fatalf("warm resolve: warm=%v rejected=%q, want warm and no rejection", stats.Warm, stats.WarmRejected)
	}
}

// TestSessionWarmResolveTracksColdSolve replays a drift trace (churn 0.05,
// drift seed 2) through a session anchored on a portfolio solve. At every
// step the warm Resolve must come from the warm path and cost no more than
// a cold SA solve of the same instance from scratch, within tol. Seeds are
// fixed, so a second replay must give identical costs. The full row is
// skipped under -short.
func TestSessionWarmResolveTracksColdSolve(t *testing.T) {
	for _, tc := range []struct {
		name         string
		full         bool
		class        vpart.RandomParams
		sites, steps int
		tol          float64
	}{
		{name: "rndAt16x60", class: vpart.ClassA(16, 60, 10), sites: 4, steps: 5, tol: 1e-9},
		{name: "rndAt64x200", full: true, class: vpart.ClassA(64, 200, 10), sites: 8, steps: 10, tol: 0.01},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.full && testing.Short() {
				t.Skip("full configuration")
			}
			ctx := context.Background()
			inst, err := vpart.RandomInstance(tc.class, 1)
			if err != nil {
				t.Fatal(err)
			}
			trace, err := vpart.Drift(inst, tc.steps, 0.05, 2)
			if err != nil {
				t.Fatal(err)
			}
			opts := vpart.Options{Sites: tc.sites, Solver: "sa", Seed: 1}
			replay := func() (costs []float64) {
				sess, err := vpart.NewSession(inst, opts)
				if err != nil {
					t.Fatal(err)
				}
				anchor, err := vpart.Solve(ctx, inst, vpart.Options{Sites: tc.sites, Solver: "portfolio", Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				if err := sess.Adopt(anchor); err != nil {
					t.Fatal(err)
				}
				for k, delta := range trace {
					if err := sess.Apply(delta); err != nil {
						t.Fatal(err)
					}
					warm, _, err := sess.Resolve(ctx)
					if err != nil {
						t.Fatal(err)
					}
					cold, err := vpart.Solve(ctx, sess.Instance(), opts)
					if err != nil {
						t.Fatal(err)
					}
					if !warm.WarmStart {
						t.Fatalf("step %d: the resolve did not come out of the warm path", k+1)
					}
					if warm.Cost.Balanced > cold.Cost.Balanced*(1+tc.tol) {
						t.Fatalf("step %d: warm cost %.6g exceeds cold cost %.6g (%.2f%%)", k+1,
							warm.Cost.Balanced, cold.Cost.Balanced, 100*warm.Cost.Balanced/cold.Cost.Balanced)
					}
					costs = append(costs, warm.Cost.Balanced, cold.Cost.Balanced)
				}
				return costs
			}
			if first, second := replay(), replay(); !slices.Equal(first, second) {
				t.Fatalf("replays differ:\n%v\n%v", first, second)
			}
		})
	}
}
