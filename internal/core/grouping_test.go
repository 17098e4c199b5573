package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGroupAttributesFixture(t *testing.T) {
	inst := testInstance()
	g, err := GroupAttributes(inst)
	if err != nil {
		t.Fatalf("GroupAttributes: %v", err)
	}
	// In the fixture: a1 and a2 are both referenced only by q1 -> one group;
	// a3 is referenced by nothing -> own group; b1 is referenced by q2 and q3;
	// b2 only by q3. So 5 attributes collapse to 4 groups.
	orig, grouped := g.Reduction()
	if orig != 5 || grouped != 4 {
		t.Fatalf("Reduction = (%d,%d), want (5,4)", orig, grouped)
	}
	if g.NumGroups() != 4 {
		t.Fatalf("NumGroups = %d", g.NumGroups())
	}
	// a1 and a2 must share a group whose width is 12.
	ga1 := g.GroupOf[QualifiedAttr{Table: "R", Attr: "a1"}]
	ga2 := g.GroupOf[QualifiedAttr{Table: "R", Attr: "a2"}]
	if ga1 != ga2 {
		t.Fatalf("a1 and a2 not grouped: %v vs %v", ga1, ga2)
	}
	tbl, _ := g.Grouped.Schema.Table("R")
	attr, ok := tbl.Attribute(ga1.Attr)
	if !ok || attr.Width != 12 {
		t.Fatalf("group width = %+v (%v)", attr, ok)
	}
	// b1 and b2 have different signatures and stay separate.
	gb1 := g.GroupOf[QualifiedAttr{Table: "S", Attr: "b1"}]
	gb2 := g.GroupOf[QualifiedAttr{Table: "S", Attr: "b2"}]
	if gb1 == gb2 {
		t.Fatal("b1 and b2 wrongly grouped")
	}
	if members := g.Members[ga1]; len(members) != 2 {
		t.Fatalf("group members = %v", members)
	}
	if err := g.Grouped.Validate(); err != nil {
		t.Fatalf("grouped instance invalid: %v", err)
	}
	if g.Grouped == inst {
		t.Fatal("a merging grouping returned its input as the grouped instance")
	}
}

// checkIdentityGrouping fails unless g is the identity grouping of inst: the
// input itself as Grouped, and every attribute its own one-member group.
func checkIdentityGrouping(t *testing.T, inst *Instance, g *Grouping) {
	t.Helper()
	if g.Grouped != inst {
		t.Fatal("an identity grouping did not return its input as the grouped instance")
	}
	if g.Original != inst {
		t.Fatal("Original is not the input")
	}
	if orig, grouped := g.Reduction(); orig != grouped {
		t.Fatalf("Reduction = (%d,%d), want equal counts", orig, grouped)
	}
	if len(g.Members) != inst.NumAttributes() || len(g.GroupOf) != inst.NumAttributes() {
		t.Fatalf("%d members and %d group entries, want %d each", len(g.Members), len(g.GroupOf), inst.NumAttributes())
	}
	for _, tbl := range inst.Schema.Tables {
		for _, a := range tbl.Attributes {
			qa := QualifiedAttr{Table: tbl.Name, Attr: a.Name}
			if g.GroupOf[qa] != qa {
				t.Errorf("GroupOf[%s] = %s, want itself", qa, g.GroupOf[qa])
			}
			if m := g.Members[qa]; len(m) != 1 || m[0] != qa {
				t.Errorf("Members[%s] = %v, want [%s]", qa, m, qa)
			}
		}
	}
}

// TestGroupAttributesIdentityReturnsInput: when every attribute has its own
// access signature nothing merges, and the grouping hands back its input.
func TestGroupAttributesIdentityReturnsInput(t *testing.T) {
	inst := &Instance{
		Name: "distinct",
		Schema: Schema{Tables: []Table{
			{Name: "R", Attributes: []Attribute{{Name: "a1", Width: 4}, {Name: "a2", Width: 8}, {Name: "a3", Width: 2}}},
			{Name: "S", Attributes: []Attribute{{Name: "b1", Width: 4}}},
		}},
		Workload: Workload{Transactions: []Transaction{
			{Name: "T1", Queries: []Query{
				NewRead("q1", "R", []string{"a1"}, 1, 1),
				NewRead("q2", "R", []string{"a1", "a2"}, 1, 1),
			}},
			{Name: "T2", Queries: []Query{
				NewWrite("q3", "R", []string{"a1", "a2", "a3"}, 1, 1),
				NewRead("q4", "S", []string{"b1"}, 2, 1),
			}},
		}},
	}
	g, err := GroupAttributes(inst)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentityGrouping(t, inst, g)
}

// TestGroupAttributesSiteCapacityIdentity: under a SiteCapacity constraint
// the fixture, whose a1 and a2 would merge, groups as the identity.
func TestGroupAttributesSiteCapacityIdentity(t *testing.T) {
	inst := testInstance()
	g, err := GroupAttributesConstrained(inst, &Constraints{
		SiteCapacities: []SiteCapacity{{Site: 0, Bytes: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkIdentityGrouping(t, inst, g)
}

// TestGroupModelAllocs: an identity grouping from a compiled model
// allocates per call, never per query, so a workload 32 times as large
// allocates no more.
func TestGroupModelAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		m, err := NewModel(rangeInstance(1, 64, n), DefaultModelOptions())
		if err != nil {
			t.Fatal(err)
		}
		if g := GroupModel(m, nil); g != nil {
			t.Fatalf("%d queries: attributes merge, want the identity grouping", n)
		}
		return testing.AllocsPerRun(20, func() {
			_ = GroupModel(m, nil)
		})
	}
	small, large := allocs(64), allocs(2048)
	t.Logf("allocations per call: %v for 64 queries, %v for 2048", small, large)
	if large > small+2 {
		t.Fatalf("grouping 2048 queries allocates %v times, 64 queries %v: want at most %v",
			large, small, small+2)
	}
}

func TestGroupingRejectsInvalidInstance(t *testing.T) {
	inst := testInstance()
	inst.Schema.Tables[0].Attributes[0].Width = -1
	if _, err := GroupAttributes(inst); err == nil {
		t.Fatal("invalid instance accepted")
	}
}

// TestGroupingPreservesCost: solving on the grouped instance and expanding
// back must give exactly the same cost as evaluating the expanded layout on
// the original model, and the single-site costs of both models must agree.
func TestGroupingPreservesCost(t *testing.T) {
	inst := testInstance()
	g, err := GroupAttributes(inst)
	if err != nil {
		t.Fatal(err)
	}
	opts := ModelOptions{Penalty: 2, Lambda: 0.1}
	origM, err := NewModel(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	grpM, err := NewModel(g.Grouped, opts)
	if err != nil {
		t.Fatal(err)
	}

	c1 := origM.Evaluate(SingleSite(origM, 1))
	c2 := grpM.Evaluate(SingleSite(grpM, 1))
	if !almostEqual(c1.Objective, c2.Objective) {
		t.Fatalf("single-site objective differs: %g vs %g", c1.Objective, c2.Objective)
	}

	// A grouped two-site layout, expanded, must evaluate identically.
	gp := NewPartitioning(grpM.NumTxns(), grpM.NumAttrs(), 2)
	gp.TxnSite[0], gp.TxnSite[1] = 0, 1
	for a := 0; a < grpM.NumAttrs(); a++ {
		if grpM.Attr(a).Table == 0 {
			gp.AttrSites[a][0] = true
		} else {
			gp.AttrSites[a][1] = true
		}
	}
	if err := gp.Validate(grpM); err != nil {
		t.Fatalf("grouped layout infeasible: %v", err)
	}
	exp, err := g.Expand(grpM, origM, gp)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if err := exp.Validate(origM); err != nil {
		t.Fatalf("expanded layout infeasible: %v", err)
	}
	cg := grpM.Evaluate(gp)
	ce := origM.Evaluate(exp)
	if !almostEqual(cg.Objective, ce.Objective) || !almostEqual(cg.Balanced, ce.Balanced) {
		t.Fatalf("grouping changed the cost: grouped %v vs expanded %v", cg, ce)
	}
}

func TestExpandErrors(t *testing.T) {
	inst := testInstance()
	g, _ := GroupAttributes(inst)
	opts := DefaultModelOptions()
	origM, _ := NewModel(inst, opts)
	grpM, _ := NewModel(g.Grouped, opts)
	other, _ := NewModel(testInstance(), opts)

	p := SingleSite(grpM, 1)
	if _, err := g.Expand(other, origM, p); err == nil {
		t.Error("Expand accepted a foreign grouped model")
	}
	if _, err := g.Expand(grpM, other, p); err == nil {
		t.Error("Expand accepted a foreign original model")
	}
	if _, err := g.Expand(grpM, origM, p); err != nil {
		t.Errorf("Expand rejected matching models: %v", err)
	}
}

// Property: for random instances, grouping preserves the cost of expanded
// partitionings and never increases the attribute count.
func TestGroupingCostInvariantProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randomInstance(r)
		g, err := GroupAttributes(inst)
		if err != nil {
			return false
		}
		orig, grouped := g.Reduction()
		if grouped > orig {
			return false
		}
		opts := ModelOptions{Penalty: 4, Lambda: 0.3}
		origM, err := NewModel(inst, opts)
		if err != nil {
			return false
		}
		grpM, err := NewModel(g.Grouped, opts)
		if err != nil {
			return false
		}
		sites := 1 + r.Intn(3)
		gp := randomPartitioning(r, grpM, sites)
		exp, err := g.Expand(grpM, origM, gp)
		if err != nil {
			return false
		}
		if exp.Validate(origM) != nil {
			return false
		}
		return almostEqual(grpM.Evaluate(gp).Objective, origM.Evaluate(exp).Objective)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
