package vpart_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"vpart"
)

// deriveConstraints builds a random — but guaranteed satisfiable —
// constraint set from a reference feasible solution: every generated
// constraint is consistent with the reference layout by construction, so the
// constrained solve space is provably non-empty.
func deriveConstraints(t *testing.T, rng *rand.Rand, sol *vpart.Solution) *vpart.Constraints {
	t.Helper()
	m, p := sol.Model, sol.Partitioning
	cons := &vpart.Constraints{}
	sites := p.Sites

	// Pin a few transactions to their reference sites.
	for i := 0; i < 2 && i < m.NumTxns(); i++ {
		tx := rng.Intn(m.NumTxns())
		cons.PinTxns = append(cons.PinTxns, vpart.PinTxn{
			Txn: m.TxnName(tx), Site: p.TxnSite[tx],
		})
	}
	// Pin some attributes to one of their reference sites, forbid them on a
	// site they do not occupy, cap others at their reference replica count
	// plus slack.
	usedAttrs := map[int]bool{}
	pickAttr := func() int {
		for try := 0; try < 20; try++ {
			a := rng.Intn(m.NumAttrs())
			if !usedAttrs[a] {
				usedAttrs[a] = true
				return a
			}
		}
		return -1
	}
	for i := 0; i < 3; i++ {
		a := pickAttr()
		if a < 0 {
			break
		}
		var on, off []int
		for s := 0; s < sites; s++ {
			if p.AttrSites[a][s] {
				on = append(on, s)
			} else {
				off = append(off, s)
			}
		}
		q := m.Attr(a).Qualified
		if len(on) > 0 {
			cons.PinAttrs = append(cons.PinAttrs, vpart.PinAttr{Attr: q, Site: on[rng.Intn(len(on))]})
		}
		if len(off) > 0 {
			cons.ForbidAttrs = append(cons.ForbidAttrs, vpart.ForbidAttr{Attr: q, Site: off[rng.Intn(len(off))]})
		}
	}
	for i := 0; i < 2; i++ {
		a := pickAttr()
		if a < 0 {
			break
		}
		k := p.Replicas(a)
		if k < sites {
			k += rng.Intn(sites - k + 1)
		}
		cons.MaxReplicas = append(cons.MaxReplicas, vpart.MaxReplicas{Attr: m.Attr(a).Qualified, K: k})
	}
	// Separate a pair that is site-disjoint in the reference (if any exists
	// among a few random probes).
	for try := 0; try < 25; try++ {
		a, b := rng.Intn(m.NumAttrs()), rng.Intn(m.NumAttrs())
		if a == b || usedAttrs[a] || usedAttrs[b] {
			continue
		}
		disjoint := true
		for s := 0; s < sites; s++ {
			if p.AttrSites[a][s] && p.AttrSites[b][s] {
				disjoint = false
				break
			}
		}
		if disjoint {
			usedAttrs[a], usedAttrs[b] = true, true
			cons.Separate = append(cons.Separate, vpart.Separate{
				A: m.Attr(a).Qualified, B: m.Attr(b).Qualified,
			})
			break
		}
	}
	// Colocate a pair with identical reference site sets.
	for try := 0; try < 25; try++ {
		a, b := rng.Intn(m.NumAttrs()), rng.Intn(m.NumAttrs())
		if a == b || usedAttrs[a] || usedAttrs[b] {
			continue
		}
		if reflect.DeepEqual(p.AttrSites[a], p.AttrSites[b]) {
			usedAttrs[a], usedAttrs[b] = true, true
			cons.Colocate = append(cons.Colocate, vpart.Colocate{
				A: m.Attr(a).Qualified, B: m.Attr(b).Qualified,
			})
			break
		}
	}
	// Capacity: the busiest reference site's usage plus generous slack on
	// every site, so the reference stays feasible and the solver has room.
	var maxUsed int64
	for s := 0; s < sites; s++ {
		var used int64
		for a := 0; a < m.NumAttrs(); a++ {
			if p.AttrSites[a][s] {
				used += int64(m.Attr(a).Width)
			}
		}
		if used > maxUsed {
			maxUsed = used
		}
	}
	cons.SiteCapacities = append(cons.SiteCapacities, vpart.SiteCapacity{
		Site: rng.Intn(sites), Bytes: maxUsed * 2,
	})
	return cons
}

// TestSolversHonourRandomConstraints is acceptance property (a): across all
// three write-accounting modes and every built-in solver, the returned
// solution satisfies Constraints.Check for randomly derived (satisfiable)
// constraint sets.
func TestSolversHonourRandomConstraints(t *testing.T) {
	inst := vpart.TPCC()
	ctx := context.Background()
	modes := []vpart.WriteAccounting{vpart.WriteAll, vpart.WriteRelevant, vpart.WriteNone}
	for mi, mode := range modes {
		mo := vpart.DefaultModelOptions()
		mo.WriteAccounting = mode
		ref, err := vpart.Solve(ctx, inst, vpart.Options{Sites: 3, Solver: "sa", Model: &mo, Seed: 7})
		if err != nil {
			t.Fatalf("reference solve (%v): %v", mode, err)
		}
		rng := rand.New(rand.NewSource(int64(100 + mi)))
		cons := deriveConstraints(t, rng, ref)
		for _, solver := range []string{"sa", "qp", "portfolio", "decompose"} {
			if solver == "qp" && mode == vpart.WriteRelevant {
				continue // the QP linearisation cannot express this mode
			}
			t.Run(mode.String()+"/"+solver, func(t *testing.T) {
				opts := vpart.Options{
					Sites:       3,
					Solver:      solver,
					Model:       &mo,
					Seed:        11,
					Constraints: cons,
					TimeLimit:   20 * time.Second,
				}
				if solver == "qp" {
					opts.SeedWithSA = true
				}
				if solver == "portfolio" {
					opts.Portfolio.SASeeds = 2
				}
				sol, err := vpart.Solve(ctx, inst, opts)
				if err != nil {
					t.Fatalf("constrained %s solve: %v", solver, err)
				}
				if sol.Partitioning == nil {
					t.Fatalf("constrained %s solve found no partitioning", solver)
				}
				if err := cons.Check(sol.Model, sol.Partitioning); err != nil {
					t.Fatalf("%s solution violates constraints: %v", solver, err)
				}
			})
		}
	}
}

// TestEmptyConstraintsBitIdentical is acceptance property (b): a solve with
// an empty (or nil) constraint set compiles to the nil, empty set, which the
// constraint-aware solvers narrow nothing with, and is bit-identical to
// today's results on fixed seeds.
func TestEmptyConstraintsBitIdentical(t *testing.T) {
	ctx := context.Background()
	rndA, err := vpart.RandomInstance(vpart.ClassA(8, 15, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		inst    *vpart.Instance
		solvers []string
	}{
		// QP runs only on TPC-C, where it converges by gap: a solve cut
		// short by the wall-clock limit is not timing-deterministic, so it
		// cannot anchor a bit-identity regression.
		{"tpcc", vpart.TPCC(), []string{"sa", "qp"}},
		{"rndAt8x15", rndA, []string{"sa"}},
	} {
		for _, solver := range tc.solvers {
			t.Run(tc.name+"/"+solver, func(t *testing.T) {
				base := vpart.Options{Sites: 3, Solver: solver, Seed: 5, TimeLimit: 20 * time.Second}
				if solver == "qp" {
					base.SeedWithSA = true
				}
				plain, err := vpart.Solve(ctx, tc.inst, base)
				if err != nil {
					t.Fatal(err)
				}
				withEmpty := base
				withEmpty.Constraints = &vpart.Constraints{}
				constrained, err := vpart.Solve(ctx, tc.inst, withEmpty)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(plain.Partitioning, constrained.Partitioning) {
					t.Fatal("empty constraint set changed the partitioning")
				}
				if plain.Cost.Objective != constrained.Cost.Objective ||
					plain.Cost.Balanced != constrained.Cost.Balanced ||
					plain.Cost.ReadAccess != constrained.Cost.ReadAccess ||
					plain.Cost.WriteAccess != constrained.Cost.WriteAccess ||
					plain.Cost.Transfer != constrained.Cost.Transfer {
					t.Fatalf("empty constraint set changed the cost: %v vs %v", plain.Cost, constrained.Cost)
				}
			})
		}
	}
}

// TestGroupedConstraintInheritance is acceptance property (c): constraints
// on individual attributes survive the reasonable-cuts grouping — grouped
// solves split groups with conflicting profiles and the expanded solution
// respects every per-attribute constraint.
func TestGroupedConstraintInheritance(t *testing.T) {
	inst := vpart.TPCC()
	ctx := context.Background()

	// Find two attributes that share a reasonable-cuts group, so the
	// constraints below genuinely exercise the split-and-inherit machinery.
	g, err := vpart.GroupAttributes(inst)
	if err != nil {
		t.Fatal(err)
	}
	var memberA, memberB vpart.QualifiedAttr
	for _, members := range g.Members {
		if len(members) >= 2 {
			memberA, memberB = members[0], members[1]
			break
		}
	}
	if memberA.Attr == "" {
		t.Skip("TPC-C grouping produced no multi-member group")
	}

	cons := &vpart.Constraints{
		// Conflicting pins inside one group: the group must split.
		PinAttrs: []vpart.PinAttr{
			{Attr: memberA, Site: 0},
			{Attr: memberB, Site: 1},
		},
		ForbidAttrs: []vpart.ForbidAttr{{Attr: memberA, Site: 2}},
	}
	for _, grouped := range []bool{true, false} {
		sol, err := vpart.Solve(ctx, inst, vpart.Options{
			Sites:           3,
			Solver:          "sa",
			Seed:            3,
			Constraints:     cons,
			DisableGrouping: !grouped,
		})
		if err != nil {
			t.Fatalf("grouped=%v: %v", grouped, err)
		}
		if err := cons.Check(sol.Model, sol.Partitioning); err != nil {
			t.Fatalf("grouped=%v solve violates per-attribute constraints after expansion: %v", grouped, err)
		}
		// Spot-check the conflicting pins explicitly on the expanded layout.
		aID, _ := sol.Model.AttrID(memberA)
		bID, _ := sol.Model.AttrID(memberB)
		if !sol.Partitioning.AttrSites[aID][0] {
			t.Fatalf("grouped=%v: %s not on its pinned site 0", grouped, memberA)
		}
		if !sol.Partitioning.AttrSites[bID][1] {
			t.Fatalf("grouped=%v: %s not on its pinned site 1", grouped, memberB)
		}
		if sol.Partitioning.AttrSites[aID][2] {
			t.Fatalf("grouped=%v: %s on its forbidden site 2", grouped, memberA)
		}
	}
}

// TestWarmRejectedReason covers the warm-start fallback satellite: a hint
// the facade cannot use produces a WarmRejected reason on the solution and
// an EventMessage progress event instead of a silent cold solve.
func TestWarmRejectedReason(t *testing.T) {
	inst := vpart.TPCC()
	ctx := context.Background()
	ref, err := vpart.Solve(ctx, inst, vpart.Options{Sites: 4, Solver: "sa", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	var events []vpart.Event
	sol, err := vpart.Solve(ctx, inst, vpart.Options{
		Sites:  3, // mismatching site count: the hint must be rejected
		Solver: "sa",
		Seed:   2,
		Warm:   ref,
		Progress: func(e vpart.Event) {
			if e.Kind == vpart.EventMessage {
				events = append(events, e)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.WarmStart {
		t.Fatal("solve reported a warm start from an unusable hint")
	}
	if sol.WarmRejected == "" {
		t.Fatal("WarmRejected not set for a rejected hint")
	}
	found := false
	for _, e := range events {
		if e.Kind == vpart.EventMessage && len(e.Message) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no EventMessage emitted for the rejected warm start")
	}

	// A usable hint leaves WarmRejected empty.
	sol2, err := vpart.Solve(ctx, inst, vpart.Options{Sites: 4, Solver: "sa", Seed: 2, Warm: ref})
	if err != nil {
		t.Fatal(err)
	}
	if sol2.WarmRejected != "" {
		t.Fatalf("usable hint rejected: %s", sol2.WarmRejected)
	}

	// A constraint-violating hint is rejected with a constraint reason.
	txn0 := ref.Model.TxnName(0)
	pinned := 1
	if ref.Partitioning.TxnSite[0] == 1 {
		pinned = 2
	}
	sol3, err := vpart.Solve(ctx, inst, vpart.Options{
		Sites:  4,
		Solver: "sa",
		Seed:   2,
		Warm:   ref,
		Constraints: &vpart.Constraints{
			PinTxns: []vpart.PinTxn{{Txn: txn0, Site: pinned}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sol3.Model.CheckConstraints(sol3.Partitioning); err != nil {
		t.Fatalf("constrained warm solve violates constraints: %v", err)
	}
}

// TestConstraintOptionValidation covers the facade's fail-fast paths.
func TestConstraintOptionValidation(t *testing.T) {
	inst := vpart.TPCC()
	ctx := context.Background()
	if _, err := vpart.Solve(ctx, inst, vpart.Options{
		Sites:       2,
		Disjoint:    true,
		Constraints: &vpart.Constraints{PinTxns: []vpart.PinTxn{{Txn: "NewOrder", Site: 0}}},
	}); err == nil {
		t.Fatal("Disjoint+Constraints accepted")
	}
	if _, err := vpart.Solve(ctx, inst, vpart.Options{
		Sites:       2,
		Constraints: &vpart.Constraints{PinTxns: []vpart.PinTxn{{Txn: "NewOrder", Site: 5}}},
	}); err == nil {
		t.Fatal("pin beyond the site count accepted")
	}
	if _, err := vpart.Solve(ctx, inst, vpart.Options{
		Sites:       2,
		Constraints: &vpart.Constraints{PinTxns: []vpart.PinTxn{{Txn: "NoSuchTxn", Site: 0}}},
	}); err == nil {
		t.Fatal("unknown transaction reference accepted")
	}
}

// TestCapacityFeasibleOnlyWhenSplit is the end-to-end regression for
// grouping under capacities: an instance whose byte budgets force two
// same-signature attributes onto different sites must solve on the default
// (grouping-enabled) path.
func TestCapacityFeasibleOnlyWhenSplit(t *testing.T) {
	inst := &vpart.Instance{
		Name: "cap-split",
		Schema: vpart.Schema{Tables: []vpart.Table{
			{Name: "T", Attributes: []vpart.Attribute{{Name: "a", Width: 10}, {Name: "b", Width: 10}}},
		}},
		Workload: vpart.Workload{Transactions: []vpart.Transaction{
			{Name: "X", Queries: []vpart.Query{vpart.NewWrite("q1", "T", []string{"a", "b"}, 1, 10)}},
		}},
	}
	cons := &vpart.Constraints{SiteCapacities: []vpart.SiteCapacity{
		{Site: 0, Bytes: 15}, {Site: 1, Bytes: 15},
	}}
	sol, err := vpart.Solve(context.Background(), inst, vpart.Options{
		Sites: 2, Solver: "sa", Seed: 1, Constraints: cons,
	})
	if err != nil {
		t.Fatalf("capacity-feasible instance failed on the default grouped path: %v", err)
	}
	if err := cons.Check(sol.Model, sol.Partitioning); err != nil {
		t.Fatalf("solution violates the capacities: %v", err)
	}
}

// TestConstraintsSnapshotOnEntry: Solve and NewSession deep-copy the
// caller's constraint set, so later mutation cannot change what an existing
// session enforces.
func TestConstraintsSnapshotOnEntry(t *testing.T) {
	ctx := context.Background()
	inst := vpart.TPCC()
	txn := inst.Workload.Transactions[0].Name
	cons := &vpart.Constraints{PinTxns: []vpart.PinTxn{{Txn: txn, Site: 1}}}
	sess, err := vpart.NewSession(inst, vpart.Options{Sites: 3, Solver: "sa", Seed: 1, Constraints: cons})
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the caller's set after construction: the session must keep
	// enforcing the original pin, not pick up the new one.
	cons.PinTxns[0].Site = 2
	sol, _, err := sess.Resolve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ti, _ := sol.Model.TxnIndex(txn)
	if got := sol.Partitioning.TxnSite[ti]; got != 1 {
		t.Fatalf("session picked up a post-construction mutation: %s on site %d, want 1", txn, got)
	}
}
