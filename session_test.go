package vpart_test

import (
	"bytes"
	"context"
	"errors"
	"maps"
	"reflect"
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

// TestSessionAddAttrKeepsIncumbentNames: a column added to any table but
// the last renumbers the attributes of every later table. The session must
// still match its incumbent to the drifted instance by name — in the
// snapshot, in Staleness and StaleCost, and through a snapshot round trip.
// TPC-C's first table renumbers every later attribute; its last renumbers
// none. Table names may contain dots, as schema-qualified names do.
func TestSessionAddAttrKeepsIncumbentNames(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name, table string
		inst        *vpart.Instance
	}{
		{"Warehouse", "Warehouse", vpart.TPCC()},
		{"Stock", "Stock", vpart.TPCC()},
		{"schema_qualified", "tpcc.Warehouse", schemaQualified(vpart.TPCC(), "tpcc")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := vpart.NewSession(tc.inst, vpart.Options{Sites: 3, Solver: "sa", Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			sol, _, err := sess.Resolve(ctx)
			if err != nil {
				t.Fatal(err)
			}
			solved := sol.Partitioning.ToAssignment(sol.Model)
			if err := sess.Apply(vpart.WorkloadDelta{Ops: []vpart.DeltaOp{
				vpart.AddAttr{Table: tc.table, Attr: vpart.Attribute{Name: "zz_new", Width: 4}},
			}}); err != nil {
				t.Fatal(err)
			}

			// The reference: the solved layout matched to the drifted
			// instance by name, the new column placed by Repair.
			m, err := vpart.NewModel(sess.Instance(), vpart.DefaultModelOptions())
			if err != nil {
				t.Fatal(err)
			}
			ref, err := vpart.FromAssignment(m, solved)
			if err != nil {
				t.Fatal(err)
			}
			ref.Repair(m)
			refCost := m.Evaluate(ref)

			snap := sess.Snapshot()
			if snap.Incumbent == nil {
				t.Fatal("snapshot dropped the incumbent")
			}
			for _, name := range slices.Sorted(maps.Keys(solved.Attributes)) {
				if got, sites := snap.Incumbent.Attributes[name], solved.Attributes[name]; !slices.Equal(got, sites) {
					t.Errorf("snapshot places %s on %v, the solve on %v", name, got, sites)
				}
			}
			if !maps.Equal(snap.Incumbent.Transactions, solved.Transactions) {
				t.Errorf("snapshot transactions %v, solved %v", snap.Incumbent.Transactions, solved.Transactions)
			}
			if got, want := sess.Staleness(), refCost.Balanced/sol.Cost.Balanced-1; got != want {
				t.Errorf("Staleness = %.4f, by name %.4f", got, want)
			}

			restored, err := vpart.NewSessionFromSnapshot(snap, vpart.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := restored.Snapshot().Incumbent, ref.ToAssignment(m); !reflect.DeepEqual(got, want) {
				t.Errorf("snapshot round trip restored %v, want %v", got, want)
			}

			_, stats, err := sess.Resolve(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stats.StaleCost, refCost) {
				t.Errorf("StaleCost = %+v, by name %+v", stats.StaleCost, refCost)
			}
		})
	}
}

// schemaQualified prefixes every table name of inst with schema and a dot,
// as in "public.users".
func schemaQualified(inst *vpart.Instance, schema string) *vpart.Instance {
	inst = inst.Clone()
	for i := range inst.Schema.Tables {
		inst.Schema.Tables[i].Name = schema + "." + inst.Schema.Tables[i].Name
	}
	for i := range inst.Workload.Transactions {
		for j := range inst.Workload.Transactions[i].Queries {
			q := &inst.Workload.Transactions[i].Queries[j]
			for k := range q.Accesses {
				q.Accesses[k].Table = schema + "." + q.Accesses[k].Table
			}
		}
	}
	return inst
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
	if !strings.HasPrefix(warm.Solver, "decompose/") {
		t.Errorf("warm solver %q", warm.Solver)
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
		Portfolio: vpart.PortfolioOptions{SASeeds: 3},
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
	if strings.Contains(sol.Solver, "sa+warm") != sol.WarmStart {
		t.Errorf("WarmStart %v inconsistent with winner %q", sol.WarmStart, sol.Solver)
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
	// dimensions — still adopts: stale anchors are adapted by name, not
	// rejected. tpccDelta grows the last table, which renumbers nothing; a
	// column added to the first table renumbers every later attribute.
	stale, err := vpart.Solve(ctx, inst, vpart.Options{Sites: 3, Solver: "sa", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, err := vpart.ApplyDelta(inst, vpart.WorkloadDelta{Ops: []vpart.DeltaOp{
		vpart.AddAttr{Table: inst.Schema.Tables[0].Name, Attr: vpart.Attribute{Name: "zz_new", Width: 4}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []*vpart.Instance{grown, first} {
		sess2, err := vpart.NewSession(target, vpart.Options{Sites: 3, Solver: "sa", Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := sess2.Adopt(stale); err != nil {
			t.Fatalf("stale-but-adaptable anchor rejected: %v", err)
		}
		if bad := misplaced(sess2.Snapshot().Incumbent, byName(t, target, stale)); len(bad) > 0 {
			t.Errorf("adopted layout differs from the stale one matched by name at %v", bad)
		}
	}
}

// byName is sol's layout matched to inst by name, with what inst added since
// placed by Repair: the reference for adopted anchors and warm hints.
func byName(t *testing.T, inst *vpart.Instance, sol *vpart.Solution) *vpart.Assignment {
	t.Helper()
	m, err := vpart.NewModel(inst, vpart.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	p, err := vpart.FromAssignment(m, sol.Partitioning.ToAssignment(sol.Model))
	if err != nil {
		t.Fatal(err)
	}
	p.Repair(m)
	return p.ToAssignment(m)
}

// misplaced lists the names of the transactions and attributes got places
// differently from want, both assignments over the same instance.
func misplaced(got, want *vpart.Assignment) []string {
	var bad []string
	for _, name := range slices.Sorted(maps.Keys(want.Transactions)) {
		if site, ok := got.Transactions[name]; !ok || site != want.Transactions[name] {
			bad = append(bad, name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(want.Attributes)) {
		if !slices.Equal(got.Attributes[name], want.Attributes[name]) {
			bad = append(bad, name)
		}
	}
	if len(got.Transactions) != len(want.Transactions) || len(got.Attributes) != len(want.Attributes) {
		bad = append(bad, "(names differ)")
	}
	return bad
}

// hintEchoSolver returns its warm hint unchanged, exposing what the Solve
// facade hands a solver.
type hintEchoSolver struct{}

func (hintEchoSolver) Name() string { return "hint-echo" }

func (hintEchoSolver) Solve(_ context.Context, m *vpart.Model, opts vpart.Options) (*vpart.Result, error) {
	if opts.Warm == nil {
		return nil, errors.New("hint-echo: no warm hint")
	}
	p := opts.Warm.Partitioning.Clone()
	return &vpart.Result{Partitioning: p, Cost: m.Evaluate(p), Solver: "hint-echo", WarmStart: true}, nil
}

func init() { vpart.RegisterSolver(hintEchoSolver{}) }

// TestSolveWarmHintMatchedByName: a hint from a solve of an earlier instance
// carries its Model, so Solve matches it to the grown instance by name even
// when a column added to the first table renumbered every later attribute.
func TestSolveWarmHintMatchedByName(t *testing.T) {
	ctx := context.Background()
	inst := vpart.TPCC()
	stale, err := vpart.Solve(ctx, inst, vpart.Options{Sites: 3, Solver: "sa", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	grown, err := vpart.ApplyDelta(inst, vpart.WorkloadDelta{Ops: []vpart.DeltaOp{
		vpart.AddAttr{Table: inst.Schema.Tables[0].Name, Attr: vpart.Attribute{Name: "zz_new", Width: 4}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := vpart.Solve(ctx, grown, vpart.Options{
		Sites: 3, Solver: "hint-echo", Preprocess: vpart.PreprocessNone, Warm: stale,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad := misplaced(sol.Partitioning.ToAssignment(sol.Model), byName(t, grown, stale)); len(bad) > 0 {
		t.Errorf("solver's hint differs from the stale layout matched by name at %v", bad)
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
