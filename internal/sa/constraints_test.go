package sa

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"vpart/internal/core"
	"vpart/internal/randgen"
	"vpart/internal/tpcc"
)

// constrainedTPCC compiles TPC-C with a constraint set exercising every
// constraint kind at once.
func constrainedTPCC(t *testing.T) (*core.Model, *core.Constraints) {
	t.Helper()
	qa := func(s string) core.QualifiedAttr {
		q, err := core.ParseQualifiedAttr(s)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	cons := &core.Constraints{
		PinTxns:     []core.PinTxn{{Txn: "NewOrder", Site: 1}},
		PinAttrs:    []core.PinAttr{{Attr: qa("Warehouse.W_YTD"), Site: 0}},
		ForbidAttrs: []core.ForbidAttr{{Attr: qa("Customer.C_DATA"), Site: 1}},
		Colocate:    []core.Colocate{{A: qa("Order.O_ID"), B: qa("OrderLine.OL_O_ID")}},
		Separate:    []core.Separate{{A: qa("Customer.C_DATA"), B: qa("History.H_DATA")}},
		MaxReplicas: []core.MaxReplicas{{Attr: qa("Item.I_PRICE"), K: 2}},
		SiteCapacities: []core.SiteCapacity{
			{Site: 2, Bytes: 1 << 16},
		},
	}
	m, err := core.NewModelConstrained(tpcc.Instance(), core.DefaultModelOptions(), cons)
	if err != nil {
		t.Fatal(err)
	}
	return m, cons
}

// TestSolveHonoursAllConstraintKinds runs the SA solver directly against a
// model carrying every constraint kind and checks the output with the
// oracle. Several seeds, so the perturb/intensify paths all fire.
func TestSolveHonoursAllConstraintKinds(t *testing.T) {
	m, cons := constrainedTPCC(t)
	for seed := int64(1); seed <= 3; seed++ {
		opts := DefaultOptions(3)
		opts.Seed = seed
		res, err := Solve(context.Background(), m, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := cons.Check(m, res.Partitioning); err != nil {
			t.Fatalf("seed %d violates constraints: %v", seed, err)
		}
		if err := res.Partitioning.Validate(m); err != nil {
			t.Fatalf("seed %d infeasible: %v", seed, err)
		}
	}
}

// TestSolveConstrainedWarmStart seeds a constrained solve from a previous
// constrained solution; the refinement must stay inside the feasible
// region.
func TestSolveConstrainedWarmStart(t *testing.T) {
	m, cons := constrainedTPCC(t)
	opts := DefaultOptions(3)
	opts.Seed = 1
	cold, err := Solve(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Seed = 2
	opts.Initial = cold.Partitioning
	warm, err := Solve(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStart {
		t.Error("warm run not marked WarmStart")
	}
	if err := cons.Check(m, warm.Partitioning); err != nil {
		t.Fatalf("warm solve violates constraints: %v", err)
	}
}

// TestSolveRejectsDisjointConstraints: the combination is unsupported and
// must fail fast.
func TestSolveRejectsDisjointConstraints(t *testing.T) {
	m, _ := constrainedTPCC(t)
	opts := DefaultOptions(3)
	opts.Disjoint = true
	_, err := Solve(context.Background(), m, opts)
	if err == nil || !strings.Contains(err.Error(), "disjoint") {
		t.Fatalf("disjoint+constraints: %v", err)
	}
}

// TestSolveSingleSiteConstrained: |S| = 1 only works when the constraints
// allow the trivial layout.
func TestSolveSingleSiteConstrained(t *testing.T) {
	inst := tpcc.Instance()
	okCons := &core.Constraints{PinTxns: []core.PinTxn{{Txn: "NewOrder", Site: 0}}}
	m, err := core.NewModelConstrained(inst, core.DefaultModelOptions(), okCons)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(1)
	if _, err := Solve(context.Background(), m, opts); err != nil {
		t.Fatalf("single-site solve with a site-0 pin: %v", err)
	}

	badCons := &core.Constraints{PinTxns: []core.PinTxn{{Txn: "NewOrder", Site: 1}}}
	m2, err := core.NewModelConstrained(inst, core.DefaultModelOptions(), badCons)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(context.Background(), m2, opts); err == nil {
		t.Fatal("single-site solve with a site-1 pin accepted")
	}
}

// nonBinding is a constraint set that binds nothing on the given site count:
// one MaxReplicas whose K is the site count.
func nonBinding(inst *core.Instance, sites int) *core.Constraints {
	tbl := inst.Schema.Tables[0]
	qa := core.QualifiedAttr{Table: tbl.Name, Attr: tbl.Attributes[0].Name}
	return &core.Constraints{MaxReplicas: []core.MaxReplicas{{Attr: qa, K: sites}}}
}

// TestNonBindingConstraintsChangeNothing: a model with a constraint set takes
// the constraint-aware steps of a solve — randomX, the perturb draws, both
// greedy passes and Repair — and with nothing binding they narrow nothing,
// so the solve must return the unconstrained model's layout, cost bits and
// iteration count at every fixed seed.
func TestNonBindingConstraintsChangeNothing(t *testing.T) {
	insts := []*core.Instance{tpcc.Instance()}
	for _, g := range []struct {
		class randgen.Params
		seed  int64
	}{
		{randgen.ClassA(16, 60, 25), 1}, {randgen.ClassA(16, 60, 25), 2},
		{randgen.ClassA(16, 60, 25), 3}, {randgen.ClassA(64, 200, 10), 1},
	} {
		inst, err := randgen.Generate(g.class, g.seed)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst)
	}
	ctx := context.Background()
	for i, inst := range insts {
		plain := mustModel(t, inst, core.DefaultModelOptions())
		for _, sites := range []int{2, 3, 4, 8} {
			bound, err := core.NewModelConstrained(inst, core.DefaultModelOptions(), nonBinding(inst, sites))
			if err != nil {
				t.Fatal(err)
			}
			if bound.Constraints() == nil {
				t.Fatal("the non-binding set compiled to no constraints")
			}
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%d:%s/sites%d/seed%d", i, inst.Name, sites, seed)
				opts := DefaultOptions(sites)
				opts.Seed = seed
				want, err := Solve(ctx, plain, opts)
				if err != nil {
					t.Fatalf("%s unconstrained: %v", name, err)
				}
				got, err := Solve(ctx, bound, opts)
				if err != nil {
					t.Fatalf("%s constrained: %v", name, err)
				}
				if math.Float64bits(got.Cost.Balanced) != math.Float64bits(want.Cost.Balanced) ||
					!reflect.DeepEqual(got.Cost, want.Cost) {
					t.Errorf("%s: cost %v, unconstrained %v", name, got.Cost, want.Cost)
				}
				if got.Iterations != want.Iterations {
					t.Errorf("%s: %d iterations, unconstrained %d", name, got.Iterations, want.Iterations)
				}
				if !reflect.DeepEqual(got.Partitioning, want.Partitioning) {
					t.Errorf("%s: layout differs from the unconstrained one", name)
				}
			}
		}
	}
}
