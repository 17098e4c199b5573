package vpart_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"vpart"
)

func TestTPCCInstance(t *testing.T) {
	inst := vpart.TPCC()
	if err := inst.Validate(); err != nil {
		t.Fatalf("TPC-C instance invalid: %v", err)
	}
	st := inst.Stats()
	if st.Attributes != 92 || st.Transactions != 5 {
		t.Fatalf("unexpected TPC-C dimensions: %+v", st)
	}
}

func TestSolveSAOnTPCC(t *testing.T) {
	inst := vpart.TPCC()
	sol, err := vpart.Solve(context.Background(), inst, vpart.Options{Sites: 2, Solver: "sa"})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Partitioning == nil {
		t.Fatal("no partitioning")
	}
	single, err := vpart.Solve(context.Background(), inst, vpart.Options{Sites: 1, Solver: "sa"})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost.Objective >= single.Cost.Objective {
		t.Fatalf("2-site SA cost %.0f not below single-site cost %.0f",
			sol.Cost.Objective, single.Cost.Objective)
	}
	reduction := 1 - sol.Cost.Objective/single.Cost.Objective
	// The paper reports a 36-37 % reduction for its TPC-C statistics; with our
	// re-derived widths anything clearly above 10 % demonstrates the effect.
	if reduction < 0.10 {
		t.Errorf("TPC-C cost reduction %.1f%% is implausibly small", 100*reduction)
	}
	t.Logf("TPC-C SA: single-site %.0f -> 2 sites %.0f (%.1f%% reduction)",
		single.Cost.Objective, sol.Cost.Objective, 100*reduction)
	if sol.AttributeGroups >= 92 {
		t.Errorf("grouping did not reduce the attribute count: %d", sol.AttributeGroups)
	}
	if sol.Solver != "sa" || sol.Runtime <= 0 {
		t.Error("solution metadata incomplete")
	}
}

func TestSolveQPOnTPCCMatchesSAOrBetter(t *testing.T) {
	inst := vpart.TPCC()
	qpSol, err := vpart.Solve(context.Background(), inst, vpart.Options{
		Sites:      2,
		Solver:     "qp",
		SeedWithSA: true,
		TimeLimit:  2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if qpSol.Partitioning == nil {
		t.Fatal("QP returned no partitioning")
	}
	if !qpSol.Optimal {
		t.Logf("QP did not prove optimality within the limit (gap %.3g)", qpSol.Gap)
	}
	saSol, err := vpart.Solve(context.Background(), inst, vpart.Options{Sites: 2, Solver: "sa"})
	if err != nil {
		t.Fatal(err)
	}
	if qpSol.Cost.Balanced > saSol.Cost.Balanced*1.001+1e-9 {
		t.Fatalf("QP objective (6) %.0f worse than SA %.0f", qpSol.Cost.Balanced, saSol.Cost.Balanced)
	}
}

func TestSolveDisjointAndGroupingToggles(t *testing.T) {
	inst := vpart.TPCC()
	dis, err := vpart.Solve(context.Background(), inst, vpart.Options{Sites: 2, Solver: "sa", Disjoint: true})
	if err != nil {
		t.Fatal(err)
	}
	if !dis.Partitioning.IsDisjoint() {
		t.Fatal("disjoint solve returned replicas")
	}
	ungrouped, err := vpart.Solve(context.Background(), inst, vpart.Options{Sites: 2, Solver: "sa", DisableGrouping: true})
	if err != nil {
		t.Fatal(err)
	}
	if ungrouped.AttributeGroups != 92 {
		t.Fatalf("grouping disabled but AttributeGroups = %d", ungrouped.AttributeGroups)
	}
}

func TestSolveErrors(t *testing.T) {
	inst := vpart.TPCC()
	if _, err := vpart.Solve(context.Background(), nil, vpart.Options{Sites: 2}); err == nil {
		t.Error("nil instance accepted")
	}
	if _, err := vpart.Solve(context.Background(), inst, vpart.Options{Sites: 0}); err == nil {
		t.Error("zero sites accepted")
	}
	if _, err := vpart.Solve(context.Background(), inst, vpart.Options{Sites: 2, Solver: "branch-and-pray"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	mo := vpart.DefaultModelOptions()
	mo.WriteAccounting = vpart.WriteRelevant
	if _, err := vpart.Solve(context.Background(), inst, vpart.Options{Sites: 2, Solver: "qp", Model: &mo}); err == nil {
		t.Error("QP with relevant-attributes accounting accepted")
	}
	// The SA solver supports the relevant-attributes accounting.
	if _, err := vpart.Solve(context.Background(), inst, vpart.Options{Sites: 2, Solver: "sa", Model: &mo}); err != nil {
		t.Errorf("SA with relevant-attributes accounting rejected: %v", err)
	}
}

func TestRandomInstanceFacade(t *testing.T) {
	params := vpart.ClassA(8, 15, 10)
	inst, err := vpart.RandomInstance(params, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if inst.Name != "rndAt8x15" {
		t.Errorf("instance name %q", inst.Name)
	}
	if len(vpart.NamedRandomClasses()) == 0 {
		t.Error("no named classes")
	}
	if _, ok := vpart.RandomClass("rndBt4x15"); !ok {
		t.Error("rndBt4x15 missing")
	}
	if _, ok := vpart.RandomClass("bogus"); ok {
		t.Error("bogus class found")
	}
	p := vpart.DefaultRandomParams(10, 10)
	if p.Transactions != 10 || p.Tables != 10 {
		t.Errorf("DefaultRandomParams = %+v", p)
	}
}

func TestEvaluateAndSimulateAgree(t *testing.T) {
	inst := vpart.TPCC()
	sol, err := vpart.Solve(context.Background(), inst, vpart.Options{Sites: 3, Solver: "sa"})
	if err != nil {
		t.Fatal(err)
	}
	cost, err := vpart.Evaluate(inst, vpart.DefaultModelOptions(), sol.Partitioning)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := vpart.Simulate(context.Background(), inst, vpart.DefaultModelOptions(), sol.Partitioning, vpart.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(meas.PenalisedCost-cost.Objective) > 1e-6*(1+cost.Objective) {
		t.Fatalf("simulator measured %.2f, cost model predicts %.2f", meas.PenalisedCost, cost.Objective)
	}
}

func TestInstanceJSONRoundTripFacade(t *testing.T) {
	inst := vpart.TPCC()
	var buf bytes.Buffer
	if err := vpart.WriteInstance(&buf, inst); err != nil {
		t.Fatal(err)
	}
	back, err := vpart.ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Stats() != inst.Stats() {
		t.Fatal("round trip changed the instance statistics")
	}
}

func TestQueryConstructorsExported(t *testing.T) {
	q := vpart.NewRead("q", "T", []string{"a"}, 1, 1)
	if q.Kind != vpart.Read {
		t.Error("NewRead kind")
	}
	w := vpart.NewWrite("q", "T", []string{"a"}, 1, 1)
	if w.Kind != vpart.Write {
		t.Error("NewWrite kind")
	}
	upd := vpart.NewUpdate("u", "T", []string{"a"}, []string{"b"}, 1, 1)
	if len(upd) != 2 {
		t.Error("NewUpdate should produce two sub-queries")
	}
}

func TestPartitioningFormatViaFacade(t *testing.T) {
	inst := vpart.TPCC()
	sol, err := vpart.Solve(context.Background(), inst, vpart.Options{Sites: 3, Solver: "sa"})
	if err != nil {
		t.Fatal(err)
	}
	out := sol.Partitioning.Format(sol.Model)
	for _, want := range []string{"Site 1", "Site 2", "Site 3", "Customer.C_ID", "Transaction"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q", want)
		}
	}
}

func TestAssignmentRoundTripViaFacade(t *testing.T) {
	inst := vpart.TPCC()
	sol, err := vpart.Solve(context.Background(), inst, vpart.Options{Sites: 2, Solver: "sa"})
	if err != nil {
		t.Fatal(err)
	}
	as := sol.Partitioning.ToAssignment(sol.Model)
	back, err := vpart.FromAssignment(sol.Model, as)
	if err != nil {
		t.Fatal(err)
	}
	c1 := sol.Model.Evaluate(sol.Partitioning)
	c2 := sol.Model.Evaluate(back)
	if c1.Objective != c2.Objective {
		t.Fatal("assignment round trip changed the cost")
	}
}

// TestEvaluatorFacade exercises the incremental evaluation API as exported
// from the root package: typed moves through Apply, delta consistency with
// Evaluate, Undo and Snapshot/Restore.
func TestEvaluatorFacade(t *testing.T) {
	inst := vpart.TPCC()
	m, err := vpart.NewModel(inst, vpart.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := vpart.FullReplicationPartitioning(m, 3)
	ev, err := vpart.NewEvaluator(m, p)
	if err != nil {
		t.Fatal(err)
	}
	before := ev.Cost()
	if got := m.Evaluate(p); got.Balanced != before.Balanced {
		t.Fatalf("initial evaluator cost %g != Evaluate %g", before.Balanced, got.Balanced)
	}
	moves := []vpart.Move{
		vpart.MoveTxn{Txn: 0, Site: 2},
		vpart.DropReplica{Attr: 0, Site: 1},
		vpart.AddReplica{Attr: 0, Site: 1},
	}
	delta := 0.0
	for _, mv := range moves {
		delta += ev.Apply(mv)
	}
	after := ev.Cost()
	if diff := after.Balanced - (before.Balanced + delta); diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("deltas inconsistent: %g vs %g", after.Balanced, before.Balanced+delta)
	}
	oracle := m.Evaluate(ev.Partitioning())
	if diff := after.Balanced - oracle.Balanced; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("evaluator %g disagrees with Evaluate %g", after.Balanced, oracle.Balanced)
	}
	ev.Undo()
	if got := ev.Cost().Balanced; got != before.Balanced {
		t.Fatalf("Undo did not restore the cost: %g vs %g", got, before.Balanced)
	}
	snap := ev.Snapshot()
	ev.Apply(vpart.MoveTxn{Txn: 1, Site: 0})
	ev.Commit()
	ev.Restore(snap)
	if got := ev.Cost().Balanced; got != before.Balanced {
		t.Fatalf("Restore did not reinstate the snapshot: %g vs %g", got, before.Balanced)
	}
}
