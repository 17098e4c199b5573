package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// consFixture builds a small two-table instance with known reads/writes:
//
//	T1(a,b,c)  T2(d,e)
//	txn X reads T1.a,T1.b (freq 10), txn Y reads T2.d and writes T2.e.
func consFixture(t *testing.T) *Instance {
	t.Helper()
	inst := &Instance{
		Name: "cons-fixture",
		Schema: Schema{Tables: []Table{
			{Name: "T1", Attributes: []Attribute{{Name: "a", Width: 4}, {Name: "b", Width: 8}, {Name: "c", Width: 16}}},
			{Name: "T2", Attributes: []Attribute{{Name: "d", Width: 4}, {Name: "e", Width: 32}}},
		}},
		Workload: Workload{Transactions: []Transaction{
			{Name: "X", Queries: []Query{NewRead("q1", "T1", []string{"a", "b"}, 1, 10)}},
			{Name: "Y", Queries: []Query{
				NewRead("q2", "T2", []string{"d"}, 1, 5),
				NewWrite("q3", "T2", []string{"e"}, 1, 2),
			}},
		}},
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	return inst
}

func qa(s string) QualifiedAttr {
	q, err := ParseQualifiedAttr(s)
	if err != nil {
		panic(err)
	}
	return q
}

func TestConstraintCompileResolvesAndPropagates(t *testing.T) {
	inst := consFixture(t)
	cons := &Constraints{
		PinTxns:     []PinTxn{{Txn: "X", Site: 1}},
		ForbidAttrs: []ForbidAttr{{Attr: qa("T1.c"), Site: 1}},
		Colocate:    []Colocate{{A: qa("T1.a"), B: qa("T2.e")}},
		MaxReplicas: []MaxReplicas{{Attr: qa("T2.e"), K: 2}},
	}
	m, err := NewModelConstrained(inst, DefaultModelOptions(), cons)
	if err != nil {
		t.Fatal(err)
	}
	cs := m.Constraints()
	if cs == nil {
		t.Fatal("model has no compiled constraints")
	}
	xi, _ := m.TxnIndex("X")
	if cs.TxnPin(xi) != 1 {
		t.Fatalf("TxnPin(X) = %d, want 1", cs.TxnPin(xi))
	}
	// The pin propagates: X reads T1.a and T1.b, so both are required on
	// site 1 — and through the colocation group, T2.e inherits it too.
	for _, name := range []string{"T1.a", "T1.b", "T2.e"} {
		id, _ := m.AttrID(qa(name))
		if !cs.RequiredAt(id, 1) {
			t.Errorf("%s not required on site 1", name)
		}
	}
	// The colocation group caps both members at 2 replicas.
	aID, _ := m.AttrID(qa("T1.a"))
	if got := cs.MaxReplicasOf(aID); got != 2 {
		t.Errorf("MaxReplicasOf(T1.a) = %d, want 2 (inherited through colocation)", got)
	}

	// An unconstrained model carries the nil set, which answers every
	// accessor as the empty set.
	plain, err := NewModel(inst, DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	none := plain.Constraints()
	if none != nil {
		t.Fatal("unconstrained model carries a constraint set")
	}
	p := NewPartitioning(plain.NumTxns(), plain.NumAttrs(), 3)
	for _, row := range []struct {
		name      string
		got, want any
	}{
		{"Source", none.Source(), (*Constraints)(nil)},
		{"MaxSite", none.MaxSite(), -1},
		{"TxnPin", none.TxnPin(xi), -1},
		{"TxnSiteAllowed", none.TxnSiteAllowed(plain, xi, 2), true},
		{"Required", none.Required(aID), []int32(nil)},
		{"Forbidden", none.Forbidden(aID), []int32(nil)},
		{"RequiredAt", none.RequiredAt(aID, 1), false},
		{"ForbiddenAt", none.ForbiddenAt(aID, 1), false},
		{"MaxReplicasOf", none.MaxReplicasOf(aID), int(unlimitedReplicas)},
		{"ColocGroupOf", none.ColocGroupOf(aID), -1},
		{"NumColocGroups", none.NumColocGroups(), 0},
		{"SeparatedFrom", none.SeparatedFrom(aID), []int32(nil)},
		{"SeparatePairs", none.SeparatePairs(), [][2]int(nil)},
		{"HasCapacities", none.HasCapacities(), false},
		{"CapacityOf", none.CapacityOf(0), int64(-1)},
		{"PlaceAllowedSite", none.PlaceAllowedSite(plain, p, aID, nil), 0},
	} {
		if !reflect.DeepEqual(row.got, row.want) {
			t.Errorf("nil set: %s = %v, want %v", row.name, row.got, row.want)
		}
	}
}

func TestConstraintCompileConflicts(t *testing.T) {
	inst := consFixture(t)
	cases := []struct {
		name string
		cons *Constraints
		want string
	}{
		{
			"pin-and-forbid",
			&Constraints{
				PinAttrs:    []PinAttr{{Attr: qa("T1.c"), Site: 0}},
				ForbidAttrs: []ForbidAttr{{Attr: qa("T1.c"), Site: 0}},
			},
			"required and forbidden",
		},
		{
			"pin-exceeds-cap",
			&Constraints{
				PinAttrs:    []PinAttr{{Attr: qa("T1.c"), Site: 0}, {Attr: qa("T1.c"), Site: 1}},
				MaxReplicas: []MaxReplicas{{Attr: qa("T1.c"), K: 1}},
			},
			"capped",
		},
		{
			"colocate-and-separate",
			&Constraints{
				Colocate: []Colocate{{A: qa("T1.a"), B: qa("T1.c")}},
				Separate: []Separate{{A: qa("T1.a"), B: qa("T1.c")}},
			},
			"colocated and separated",
		},
		{
			"separated-shared-reader",
			&Constraints{Separate: []Separate{{A: qa("T1.a"), B: qa("T1.b")}}},
			"reads both",
		},
		{
			"unknown-attr",
			&Constraints{PinAttrs: []PinAttr{{Attr: qa("T9.z"), Site: 0}}},
			"unknown attribute",
		},
		{
			"unknown-txn",
			&Constraints{PinTxns: []PinTxn{{Txn: "Z", Site: 0}}},
			"unknown transaction",
		},
		{
			"conflicting-txn-pins",
			&Constraints{PinTxns: []PinTxn{{Txn: "X", Site: 0}, {Txn: "X", Site: 1}}},
			"pinned to both",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewModelConstrained(inst, DefaultModelOptions(), tc.cons)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want it to contain %q", err, tc.want)
			}
		})
	}
}

func TestConstraintValidateSites(t *testing.T) {
	inst := consFixture(t)
	m, err := NewModelConstrained(inst, DefaultModelOptions(), &Constraints{
		PinTxns: []PinTxn{{Txn: "X", Site: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ValidateConstraintSites(2); err == nil {
		t.Fatal("pin to site 2 accepted with 2 sites")
	}
	if err := m.ValidateConstraintSites(3); err != nil {
		t.Fatalf("pin to site 2 rejected with 3 sites: %v", err)
	}

	// Forbidden everywhere.
	m2, err := NewModelConstrained(inst, DefaultModelOptions(), &Constraints{
		ForbidAttrs: []ForbidAttr{{Attr: qa("T1.c"), Site: 0}, {Attr: qa("T1.c"), Site: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.ValidateConstraintSites(2); err == nil {
		t.Fatal("attribute forbidden on every site accepted")
	}
	if err := m2.ValidateConstraintSites(3); err != nil {
		t.Fatalf("unexpected: %v", err)
	}
}

func TestConstraintCheckAndValidate(t *testing.T) {
	inst := consFixture(t)
	cons := &Constraints{
		PinTxns:        []PinTxn{{Txn: "X", Site: 1}},
		ForbidAttrs:    []ForbidAttr{{Attr: qa("T1.c"), Site: 1}},
		Separate:       []Separate{{A: qa("T1.c"), B: qa("T2.e")}},
		MaxReplicas:    []MaxReplicas{{Attr: qa("T2.d"), K: 1}},
		SiteCapacities: []SiteCapacity{{Site: 0, Bytes: 60}},
	}
	m, err := NewModelConstrained(inst, DefaultModelOptions(), cons)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPartitioning(m.NumTxns(), m.NumAttrs(), 2)
	p.Repair(m)
	if err := p.Validate(m); err != nil {
		t.Fatalf("repaired empty partitioning is infeasible: %v", err)
	}
	if err := cons.Check(m, p); err != nil {
		t.Fatalf("Check after Repair: %v", err)
	}

	// Violations are detected one by one.
	xi, _ := m.TxnIndex("X")
	good := p.Clone()

	p.TxnSite[xi] = 0
	if err := m.CheckConstraints(p); err == nil || !strings.Contains(err.Error(), "pinned") {
		t.Fatalf("moved pinned txn: %v", err)
	}
	p = good.Clone()
	cID, _ := m.AttrID(qa("T1.c"))
	p.AttrSites[cID][1] = true
	if err := m.CheckConstraints(p); err == nil || !strings.Contains(err.Error(), "forbidden") {
		t.Fatalf("forbidden replica: %v", err)
	}
	p = good.Clone()
	eID, _ := m.AttrID(qa("T2.e"))
	// Put e wherever c is: separation violation.
	for s := range p.AttrSites[eID] {
		p.AttrSites[eID][s] = p.AttrSites[eID][s] || p.AttrSites[cID][s]
	}
	if err := m.CheckConstraints(p); err == nil || !strings.Contains(err.Error(), "separated") {
		t.Fatalf("separation: %v", err)
	}
	p = good.Clone()
	dID, _ := m.AttrID(qa("T2.d"))
	p.AttrSites[dID][0] = true
	p.AttrSites[dID][1] = true
	if err := m.CheckConstraints(p); err == nil || !strings.Contains(err.Error(), "replicas") {
		t.Fatalf("replica cap: %v", err)
	}
}

func TestConstraintRepairEnforcesConstructively(t *testing.T) {
	inst := consFixture(t)
	cons := &Constraints{
		PinTxns:     []PinTxn{{Txn: "Y", Site: 1}},
		PinAttrs:    []PinAttr{{Attr: qa("T1.c"), Site: 0}},
		ForbidAttrs: []ForbidAttr{{Attr: qa("T1.a"), Site: 0}},
		Colocate:    []Colocate{{A: qa("T1.c"), B: qa("T2.e")}},
	}
	m, err := NewModelConstrained(inst, DefaultModelOptions(), cons)
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately broken layout: Y on the wrong site, c missing from its
	// pin, a on its forbidden site, e not following c.
	p := NewPartitioning(m.NumTxns(), m.NumAttrs(), 2)
	for a := range p.AttrSites {
		p.AttrSites[a][0] = true
	}
	p.Repair(m)
	if err := p.Validate(m); err != nil {
		t.Fatalf("Repair left a violation: %v", err)
	}
}

func TestConstrainedGroupingSplitsConflictingProfiles(t *testing.T) {
	inst := consFixture(t)
	// T1.a and T1.b share their access signature, so they normally group.
	base, err := GroupAttributes(inst)
	if err != nil {
		t.Fatal(err)
	}
	if base.GroupOf[qa("T1.a")] != base.GroupOf[qa("T1.b")] {
		t.Fatal("fixture assumption broken: a and b no longer group")
	}
	// A pin on only one of them splits the group...
	cons := &Constraints{PinAttrs: []PinAttr{{Attr: qa("T1.a"), Site: 0}}}
	g, err := GroupAttributesConstrained(inst, cons)
	if err != nil {
		t.Fatal(err)
	}
	if g.GroupOf[qa("T1.a")] == g.GroupOf[qa("T1.b")] {
		t.Fatal("conflicting profiles did not split the group")
	}
	// ...while the same pin on both keeps them together.
	cons2 := &Constraints{PinAttrs: []PinAttr{
		{Attr: qa("T1.a"), Site: 0}, {Attr: qa("T1.b"), Site: 0},
	}}
	g2, err := GroupAttributesConstrained(inst, cons2)
	if err != nil {
		t.Fatal(err)
	}
	if g2.GroupOf[qa("T1.a")] != g2.GroupOf[qa("T1.b")] {
		t.Fatal("identical profiles split the group")
	}
	// MapConstraints rewrites member references onto the representative and
	// deduplicates.
	mapped, err := g2.MapConstraints(cons2)
	if err != nil {
		t.Fatal(err)
	}
	if len(mapped.PinAttrs) != 1 {
		t.Fatalf("mapped pins = %v, want one deduplicated entry", mapped.PinAttrs)
	}
	if mapped.PinAttrs[0].Attr != g2.GroupOf[qa("T1.a")] {
		t.Fatalf("mapped pin references %s, want the group representative %s",
			mapped.PinAttrs[0].Attr, g2.GroupOf[qa("T1.a")])
	}
}

func TestConstrainedGroupingUnconstrainedIdentical(t *testing.T) {
	inst := consFixture(t)
	a, err := GroupAttributes(inst)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GroupAttributesConstrained(inst, &Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumGroups() != b.NumGroups() {
		t.Fatalf("empty constraint set changed the grouping: %d vs %d groups", a.NumGroups(), b.NumGroups())
	}
	for q, rep := range a.GroupOf {
		if b.GroupOf[q] != rep {
			t.Fatalf("group of %s differs: %s vs %s", q, rep, b.GroupOf[q])
		}
	}
}

func TestDecomposeConstrainedWeldsComponents(t *testing.T) {
	// Two independent components: (T1, X) and (T2, Y).
	inst := consFixture(t)
	d, err := Decompose(inst, false)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumShards() != 2 {
		t.Fatalf("fixture splits into %d shards, want 2", d.NumShards())
	}
	// A cross-component colocation welds them into one shard.
	d2, err := DecomposeConstrained(inst, false, &Constraints{
		Colocate: []Colocate{{A: qa("T1.c"), B: qa("T2.e")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d2.NumShards() != 1 {
		t.Fatalf("colocated decomposition has %d shards, want 1", d2.NumShards())
	}
	if d2.ShardConstraints[0] == nil || len(d2.ShardConstraints[0].Colocate) != 1 {
		t.Fatalf("shard constraints not projected: %+v", d2.ShardConstraints[0])
	}
	// Any site capacity welds everything.
	d3, err := DecomposeConstrained(inst, false, &Constraints{
		SiteCapacities: []SiteCapacity{{Site: 0, Bytes: 1000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d3.NumShards() != 1 {
		t.Fatalf("capacity decomposition has %d shards, want 1", d3.NumShards())
	}
	// Intra-component constraints keep the split and project per shard.
	d4, err := DecomposeConstrained(inst, false, &Constraints{
		PinTxns:  []PinTxn{{Txn: "Y", Site: 1}},
		PinAttrs: []PinAttr{{Attr: qa("T1.c"), Site: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d4.NumShards() != 2 {
		t.Fatalf("pin decomposition has %d shards, want 2", d4.NumShards())
	}
	for i := range d4.Components {
		sc := d4.ShardConstraints[i]
		if sc == nil {
			t.Fatalf("shard %d lost its constraint projection", i)
		}
		if sc.Len() != 1 {
			t.Fatalf("shard %d projection %s, want exactly one constraint", i, sc)
		}
	}
}

// TestDecomposeModelMatchesDecomposeConstrained: splitting a compiled
// model's instance under its constraint set yields exactly the
// decomposition of the validating public entry point, and that entry point
// still rejects an invalid instance with and without grouping.
func TestDecomposeModelMatchesDecomposeConstrained(t *testing.T) {
	inst := consFixture(t)
	sets := []*Constraints{
		nil,
		{Colocate: []Colocate{{A: qa("T1.c"), B: qa("T2.e")}}},
		{SiteCapacities: []SiteCapacity{{Site: 0, Bytes: 1000}}},
		{PinTxns: []PinTxn{{Txn: "Y", Site: 1}}, PinAttrs: []PinAttr{{Attr: qa("T1.c"), Site: 0}}},
	}
	for i, cons := range sets {
		m, err := NewModelConstrained(inst, DefaultModelOptions(), cons)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecomposeModel(m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecomposeConstrained(inst, false, cons)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("set %d: DecomposeModel differs from DecomposeConstrained", i)
		}
	}
	bad := &Instance{Name: "bad", Schema: inst.Schema, Workload: Workload{Transactions: []Transaction{{
		Name: "Z", Queries: []Query{{Name: "q", Kind: Read, Frequency: 1,
			Accesses: []TableAccess{{Table: "missing", Attributes: []string{"x"}, Rows: 1}}}},
	}}}}
	for _, group := range []bool{false, true} {
		if _, err := DecomposeConstrained(bad, group, nil); err == nil {
			t.Fatalf("group=%v: an access to an unknown table was accepted", group)
		}
	}
}

// TestConstraintsSurviveDelta: a name-based constraint set compiles against
// the instance a delta produces, and a delta that makes the set
// contradictory fails to compile.
func TestConstraintsSurviveDelta(t *testing.T) {
	inst := consFixture(t)
	// Growing the workload keeps the pin resolved and extends the implied
	// required set to the newly read attribute.
	grown, err := ApplyDelta(inst, WorkloadDelta{Ops: []DeltaOp{
		AddQuery{Txn: "X", Query: NewRead("q9", "T1", []string{"c"}, 1, 3)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModelConstrained(grown, DefaultModelOptions(), &Constraints{
		PinTxns: []PinTxn{{Txn: "X", Site: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cID, _ := m.AttrID(qa("T1.c"))
	if !m.Constraints().RequiredAt(cID, 1) {
		t.Fatal("the pin did not propagate to the newly read attribute")
	}

	// A set forbidding that attribute on the pinned site compiles before the
	// delta and is contradictory after it.
	conflicting := &Constraints{
		PinTxns:     []PinTxn{{Txn: "X", Site: 1}},
		ForbidAttrs: []ForbidAttr{{Attr: qa("T1.c"), Site: 1}},
	}
	if _, err := NewModelConstrained(inst, DefaultModelOptions(), conflicting); err != nil {
		t.Fatal(err)
	}
	if _, err := NewModelConstrained(grown, DefaultModelOptions(), conflicting); err == nil {
		t.Fatal("contradictory set compiled against the drifted instance")
	}
}

func TestEvaluatorConstraintChecks(t *testing.T) {
	inst := consFixture(t)
	cons := &Constraints{
		PinTxns:        []PinTxn{{Txn: "X", Site: 1}},
		ForbidAttrs:    []ForbidAttr{{Attr: qa("T1.c"), Site: 1}},
		MaxReplicas:    []MaxReplicas{{Attr: qa("T2.d"), K: 1}},
		Separate:       []Separate{{A: qa("T1.c"), B: qa("T2.e")}},
		SiteCapacities: []SiteCapacity{{Site: 0, Bytes: 41}},
	}
	m, err := NewModelConstrained(inst, DefaultModelOptions(), cons)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPartitioning(m.NumTxns(), m.NumAttrs(), 2)
	p.Repair(m)
	if err := p.Validate(m); err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Constrained() {
		t.Fatal("evaluator not constrained")
	}
	xi, _ := m.TxnIndex("X")
	if ev.AllowMoveTxn(xi, 0) {
		t.Error("moving the pinned transaction allowed")
	}
	if !ev.AllowMoveTxn(xi, 1) {
		t.Error("keeping the pinned transaction on its pin disallowed")
	}
	cID, _ := m.AttrID(qa("T1.c"))
	if ev.AllowAddReplica(cID, 1) {
		t.Error("adding a forbidden replica allowed")
	}
	pp := ev.Partitioning()
	dID, _ := m.AttrID(qa("T2.d"))
	if pp.Replicas(dID) == 1 {
		other := 0
		if pp.AttrSites[dID][0] {
			other = 1
		}
		if ev.AllowAddReplica(dID, other) {
			t.Error("exceeding the replica cap allowed")
		}
	}
	// Capacity: site 0 currently stores some bytes; headroom is consistent
	// with the cap.
	var used int64
	for a := range pp.AttrSites {
		if pp.AttrSites[a][0] {
			used += int64(m.Attr(a).Width)
		}
	}
	if got := ev.SiteHeadroom(0); got != 41-used {
		t.Errorf("SiteHeadroom(0) = %d, want %d", got, 41-used)
	}
	// AllowDropReplica refuses required sites: X is pinned to 1, so its read
	// attributes are required there.
	aID, _ := m.AttrID(qa("T1.a"))
	if ev.AllowDropReplica(aID, 1) {
		t.Error("dropping a required replica allowed")
	}

	// The byte counters survive apply/undo/snapshot/restore bitwise.
	snap := ev.Snapshot()
	h0 := ev.SiteHeadroom(0)
	eID, _ := m.AttrID(qa("T2.e"))
	if pp.AttrSites[eID][0] {
		t.Skip("fixture layout changed; e already on site 0")
	}
	ev.ApplyAddReplica(eID, 0)
	if ev.SiteHeadroom(0) != h0-32 {
		t.Errorf("headroom after add = %d, want %d", ev.SiteHeadroom(0), h0-32)
	}
	ev.Undo()
	if ev.SiteHeadroom(0) != h0 {
		t.Errorf("headroom after undo = %d, want %d", ev.SiteHeadroom(0), h0)
	}
	ev.ApplyAddReplica(eID, 0)
	ev.Commit()
	ev.Restore(snap)
	if ev.SiteHeadroom(0) != h0 {
		t.Errorf("headroom after restore = %d, want %d", ev.SiteHeadroom(0), h0)
	}
}

// TestEvaluatorConstrainedZeroAlloc is the benchmark guard of the issue in
// enforceable form: with constraints compiled, the SA hot-loop operations —
// Apply/Undo plus the Allow checks — must stay allocation-free.
func TestEvaluatorConstrainedZeroAlloc(t *testing.T) {
	inst := consFixture(t)
	cons := &Constraints{
		PinTxns:        []PinTxn{{Txn: "X", Site: 1}},
		ForbidAttrs:    []ForbidAttr{{Attr: qa("T1.c"), Site: 1}},
		MaxReplicas:    []MaxReplicas{{Attr: qa("T2.d"), K: 1}},
		SiteCapacities: []SiteCapacity{{Site: 0, Bytes: 1 << 20}},
	}
	m, err := NewModelConstrained(inst, DefaultModelOptions(), cons)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPartitioning(m.NumTxns(), m.NumAttrs(), 2)
	p.Repair(m)
	ev, err := NewEvaluator(m, p)
	if err != nil {
		t.Fatal(err)
	}
	yi, _ := m.TxnIndex("Y")
	eID, _ := m.AttrID(qa("T2.e"))
	// Warm journal capacity.
	ev.ApplyMoveTxn(yi, 1)
	ev.Undo()
	allocs := testing.AllocsPerRun(200, func() {
		if ev.AllowMoveTxn(yi, 1) {
			ev.ApplyMoveTxn(yi, 1)
		}
		if ev.AllowAddReplica(eID, 1) {
			ev.ApplyAddReplica(eID, 1)
		}
		_ = ev.AllowDropReplica(eID, 1)
		_ = ev.SiteHeadroom(0)
		ev.Undo()
	})
	if allocs != 0 {
		t.Fatalf("constrained hot loop allocates %.1f per iteration, want 0", allocs)
	}
}

func TestConstraintsJSONRoundTrip(t *testing.T) {
	cons := &Constraints{
		PinTxns:        []PinTxn{{Txn: "NewOrder", Site: 2}},
		PinAttrs:       []PinAttr{{Attr: qa("WAREHOUSE.W_ID"), Site: 0}},
		ForbidAttrs:    []ForbidAttr{{Attr: qa("CUSTOMER.C_DATA"), Site: 1}},
		Colocate:       []Colocate{{A: qa("ORDERS.O_ID"), B: qa("ORDER_LINE.OL_O_ID")}},
		Separate:       []Separate{{A: qa("CUSTOMER.C_DATA"), B: qa("HISTORY.H_DATA")}},
		MaxReplicas:    []MaxReplicas{{Attr: qa("ITEM.I_PRICE"), K: 2}},
		SiteCapacities: []SiteCapacity{{Site: 1, Bytes: 4096}},
	}
	var buf bytes.Buffer
	if err := EncodeConstraints(&buf, cons); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeConstraints(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := EncodeConstraints(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("round trip not a fixed point:\n%s\nvs\n%s", buf.Bytes(), buf2.Bytes())
	}
	if got.PinAttrs[0].Attr != qa("WAREHOUSE.W_ID") {
		t.Fatalf("qualified attribute lost: %+v", got.PinAttrs[0])
	}
}

// TestMergeSolutionsSeparatedOrphans is the regression for orphan placement
// under Separate: two query-less tables whose attributes are separated weld
// into one txn-less orphan component, and the merge must spread them over
// different sites instead of stacking both on the first allowed one.
func TestMergeSolutionsSeparatedOrphans(t *testing.T) {
	inst := &Instance{
		Name: "orphan-sep",
		Schema: Schema{Tables: []Table{
			{Name: "T", Attributes: []Attribute{{Name: "a", Width: 4}}},
			{Name: "O1", Attributes: []Attribute{{Name: "x", Width: 4}}},
			{Name: "O2", Attributes: []Attribute{{Name: "y", Width: 4}}},
		}},
		Workload: Workload{Transactions: []Transaction{
			{Name: "X", Queries: []Query{NewRead("q1", "T", []string{"a"}, 1, 10)}},
		}},
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	cons := &Constraints{Separate: []Separate{{A: qa("O1.x"), B: qa("O2.y")}}}
	d, err := DecomposeConstrained(inst, false, cons)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModelConstrained(inst, DefaultModelOptions(), cons)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*Partitioning, d.NumShards())
	for i := range parts {
		sm, err := NewModel(d.Components[i].Instance, DefaultModelOptions())
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = SingleSite(sm, 2)
	}
	merged, _, err := d.MergeSolutions(m, parts)
	if err != nil {
		t.Fatalf("feasible separated orphans rejected: %v", err)
	}
	if err := cons.Check(m, merged); err != nil {
		t.Fatalf("merged layout violates the separation: %v", err)
	}
}

// TestRepairClampsUnsatisfiableTxnSite: Repair on a model whose constraints
// leave a transaction without any allowed site must still clamp an
// out-of-range site index instead of indexing out of bounds.
func TestRepairClampsUnsatisfiableTxnSite(t *testing.T) {
	inst := consFixture(t)
	m, err := NewModelConstrained(inst, DefaultModelOptions(), &Constraints{
		PinTxns: []PinTxn{{Txn: "X", Site: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPartitioning(m.NumTxns(), m.NumAttrs(), 2)
	xi, _ := m.TxnIndex("X")
	p.TxnSite[xi] = 7 // out of range, and no allowed site exists on 2 sites
	p.Repair(m)       // must not panic
	if s := p.TxnSite[xi]; s < 0 || s >= 2 {
		t.Fatalf("Repair left an out-of-range transaction site %d", s)
	}
}

// TestMergeSolutionsOrphanRespectsCapacity: orphan placement prefers a site
// with byte headroom, so a tight capacity on the first site routes the
// orphan attribute to the next one instead of failing the merge.
func TestMergeSolutionsOrphanRespectsCapacity(t *testing.T) {
	inst := &Instance{
		Name: "orphan-cap",
		Schema: Schema{Tables: []Table{
			{Name: "T", Attributes: []Attribute{{Name: "a", Width: 4}}},
			{Name: "O", Attributes: []Attribute{{Name: "x", Width: 4}}},
		}},
		Workload: Workload{Transactions: []Transaction{
			{Name: "X", Queries: []Query{NewRead("q1", "T", []string{"a"}, 1, 10)}},
		}},
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	cons := &Constraints{SiteCapacities: []SiteCapacity{{Site: 0, Bytes: 6}}}
	// Split without constraints (so O stays an orphan), merge under the
	// constrained model — the public MergeSolutions contract.
	d, err := Decompose(inst, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.OrphanAttrs) != 1 {
		t.Fatalf("fixture has %d orphan attrs, want 1", len(d.OrphanAttrs))
	}
	m, err := NewModelConstrained(inst, DefaultModelOptions(), cons)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*Partitioning, d.NumShards())
	for i := range parts {
		sm, err := NewModel(d.Components[i].Instance, DefaultModelOptions())
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = SingleSite(sm, 2) // T.a on site 0: 4 of the 6 bytes used
	}
	merged, _, err := d.MergeSolutions(m, parts)
	if err != nil {
		t.Fatalf("feasible capped orphan rejected: %v", err)
	}
	ox := d.OrphanAttrs[0]
	if merged.AttrSites[ox][0] || !merged.AttrSites[ox][1] {
		t.Fatalf("orphan placed on sites %v, want only site 1 (site 0 has no headroom)", merged.AttrSites[ox])
	}
}

// TestConstrainedGroupingIdentityUnderCapacities: site-capacity constraints
// void the grouping optimality argument (a group can never be split to
// fit), so any capacity forces the identity grouping — same-signature
// attributes stay separate and remain individually placeable.
func TestConstrainedGroupingIdentityUnderCapacities(t *testing.T) {
	// Two attributes with identical access signatures (one write query
	// touches both) that would normally merge into one width-20 group.
	inst := &Instance{
		Name: "cap-group",
		Schema: Schema{Tables: []Table{
			{Name: "T", Attributes: []Attribute{{Name: "a", Width: 10}, {Name: "b", Width: 10}}},
		}},
		Workload: Workload{Transactions: []Transaction{
			{Name: "X", Queries: []Query{NewWrite("q1", "T", []string{"a", "b"}, 1, 10)}},
		}},
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	base, err := GroupAttributes(inst)
	if err != nil {
		t.Fatal(err)
	}
	if base.NumGroups() != 1 {
		t.Fatalf("fixture assumption broken: %d groups, want 1", base.NumGroups())
	}
	cons := &Constraints{SiteCapacities: []SiteCapacity{{Site: 0, Bytes: 15}, {Site: 1, Bytes: 15}}}
	g, err := GroupAttributesConstrained(inst, cons)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumGroups() != 2 {
		t.Fatalf("capacity constraints did not force the identity grouping: %d groups", g.NumGroups())
	}
}
