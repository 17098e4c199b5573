package core

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestSingleSiteIsFeasible(t *testing.T) {
	m := testModel(t)
	for sites := 1; sites <= 4; sites++ {
		p := SingleSite(m, sites)
		if err := p.Validate(m); err != nil {
			t.Errorf("SingleSite(%d) infeasible: %v", sites, err)
		}
		if !p.IsDisjoint() {
			t.Errorf("SingleSite(%d) should be disjoint", sites)
		}
	}
}

func TestFullReplicationIsFeasible(t *testing.T) {
	m := testModel(t)
	p := FullReplication(m, 3)
	if err := p.Validate(m); err != nil {
		t.Fatalf("FullReplication infeasible: %v", err)
	}
	if p.IsDisjoint() {
		t.Fatal("FullReplication should not be disjoint")
	}
	if got := p.TotalReplicas(); got != m.NumAttrs()*3 {
		t.Fatalf("TotalReplicas = %d, want %d", got, m.NumAttrs()*3)
	}
}

func TestPartitioningValidateErrors(t *testing.T) {
	m := testModel(t)
	cases := []struct {
		name   string
		mutate func(*Partitioning)
		want   string
	}{
		{"zero sites", func(p *Partitioning) { p.Sites = 0 }, "site count"},
		{"txn bad site", func(p *Partitioning) { p.TxnSite[0] = 9 }, "invalid site"},
		{"txn negative site", func(p *Partitioning) { p.TxnSite[0] = -1 }, "invalid site"},
		{"attr nowhere", func(p *Partitioning) {
			a := 0
			for s := range p.AttrSites[a] {
				p.AttrSites[a][s] = false
			}
		}, "not stored on any site"},
		{"single-sitedness", func(p *Partitioning) {
			// move T1 to site 1 where R's attributes are absent
			p.TxnSite[0] = 1
		}, "single-sitedness"},
		{"wrong txn count", func(p *Partitioning) { p.TxnSite = p.TxnSite[:1] }, "transactions"},
		{"wrong attr count", func(p *Partitioning) { p.AttrSites = p.AttrSites[:2] }, "attributes"},
		{"wrong site slots", func(p *Partitioning) { p.AttrSites[0] = p.AttrSites[0][:1] }, "site slots"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := testModel(t)
			p := testPartitioning(m)
			tc.mutate(p)
			err := p.Validate(m)
			if err == nil {
				t.Fatalf("expected error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
	_ = m
}

func TestPartitioningRepair(t *testing.T) {
	m := testModel(t)
	p := NewPartitioning(m.NumTxns(), m.NumAttrs(), 2)
	p.TxnSite[0] = 7 // invalid site
	p.TxnSite[1] = 1
	// no attributes stored anywhere
	changed := p.Repair(m)
	if changed == 0 {
		t.Fatal("Repair reported no changes on a broken partitioning")
	}
	if err := p.Validate(m); err != nil {
		t.Fatalf("Repair left the partitioning infeasible: %v", err)
	}
	// Repairing a feasible partitioning is a no-op.
	if got := p.Repair(m); got != 0 {
		t.Fatalf("Repair of a feasible partitioning changed %d entries", got)
	}
}

func TestPartitioningClone(t *testing.T) {
	m := testModel(t)
	p := testPartitioning(m)
	c := p.Clone()
	c.TxnSite[0] = 1
	c.AttrSites[0][1] = true
	if p.TxnSite[0] == c.TxnSite[0] {
		t.Fatal("clone shares TxnSite backing array")
	}
	if p.AttrSites[0][1] {
		t.Fatal("clone shares AttrSites backing array")
	}
}

func TestReplicasAndSiteQueries(t *testing.T) {
	m := testModel(t)
	p := testPartitioning(m)
	b1 := attrID(t, m, "S", "b1")
	if got := p.Replicas(b1); got != 1 {
		t.Fatalf("Replicas(b1) = %d", got)
	}
	p.AttrSites[b1][0] = true
	if got := p.Replicas(b1); got != 2 {
		t.Fatalf("Replicas(b1) after replication = %d", got)
	}
	if p.IsDisjoint() {
		t.Fatal("partitioning with a replica reported as disjoint")
	}
	if got := p.TxnsOnSite(0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("TxnsOnSite(0) = %v", got)
	}
	if got := p.AttrsOnSite(1); len(got) != 2 {
		t.Fatalf("AttrsOnSite(1) = %v", got)
	}
	if got := p.TotalReplicas(); got != 6 {
		t.Fatalf("TotalReplicas = %d, want 6", got)
	}
}

func TestPartitioningFormat(t *testing.T) {
	m := testModel(t)
	p := testPartitioning(m)
	s := p.Format(m)
	for _, want := range []string{"Site 1", "Site 2", "Transaction T1", "Transaction T2", "R.a1", "S.b2"} {
		if !strings.Contains(s, want) {
			t.Errorf("Format output missing %q:\n%s", want, s)
		}
	}
	// A site with no transactions must still render.
	p3 := SingleSite(m, 3)
	s3 := p3.Format(m)
	if !strings.Contains(s3, "(no transactions)") {
		t.Errorf("Format should mark empty sites:\n%s", s3)
	}
}

func TestAssignmentRoundTrip(t *testing.T) {
	m := testModel(t)
	p := testPartitioning(m)
	as := p.ToAssignment(m)
	if as.Sites != 2 || as.Instance != "unit-fixture" {
		t.Fatalf("assignment header: %+v", as)
	}
	back, err := FromAssignment(m, as)
	if err != nil {
		t.Fatalf("FromAssignment: %v", err)
	}
	if err := back.Validate(m); err != nil {
		t.Fatalf("round-tripped partitioning infeasible: %v", err)
	}
	for txn := range p.TxnSite {
		if p.TxnSite[txn] != back.TxnSite[txn] {
			t.Fatalf("transaction %d site mismatch", txn)
		}
	}
	for a := range p.AttrSites {
		for s := range p.AttrSites[a] {
			if p.AttrSites[a][s] != back.AttrSites[a][s] {
				t.Fatalf("attribute %d site %d mismatch", a, s)
			}
		}
	}
}

func TestFromAssignmentErrors(t *testing.T) {
	m := testModel(t)
	p := testPartitioning(m)
	base := p.ToAssignment(m)

	bad := *base
	bad.Sites = 0
	if _, err := FromAssignment(m, &bad); err == nil {
		t.Error("zero sites accepted")
	}

	bad = *base
	bad.Transactions = map[string]int{"nope": 0}
	if _, err := FromAssignment(m, &bad); err == nil {
		t.Error("unknown transaction accepted")
	}

	bad = *base
	bad.Attributes = map[string][]int{"R.zz": {0}}
	if _, err := FromAssignment(m, &bad); err == nil {
		t.Error("unknown attribute accepted")
	}

	bad = *base
	bad.Attributes = map[string][]int{"no-dot": {0}}
	if _, err := FromAssignment(m, &bad); err == nil {
		t.Error("malformed attribute name accepted")
	}

	bad = *base
	bad.Attributes = map[string][]int{"R.a1": {5}}
	if _, err := FromAssignment(m, &bad); err == nil {
		t.Error("out-of-range site accepted")
	}
}

// Property: Repair always produces a feasible partitioning, for arbitrary
// random starting points, and under a constraint set that binds nothing —
// one MaxReplicas whose K is the site count — it makes exactly the changes it
// makes under the nil set of an unconstrained model.
func TestRepairAlwaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := randomInstance(r)
		m, err := NewModel(inst, DefaultModelOptions())
		if err != nil {
			return false
		}
		sites := 1 + r.Intn(5)
		tbl := inst.Schema.Tables[0]
		bound, err := NewModelConstrained(inst, DefaultModelOptions(), &Constraints{
			MaxReplicas: []MaxReplicas{{Attr: QualifiedAttr{Table: tbl.Name, Attr: tbl.Attributes[0].Name}, K: sites}},
		})
		if err != nil || bound.Constraints() == nil {
			return false
		}
		p := NewPartitioning(m.NumTxns(), m.NumAttrs(), sites)
		for t := range p.TxnSite {
			p.TxnSite[t] = r.Intn(sites*2) - sites/2 // may be out of range
		}
		for a := range p.AttrSites {
			for s := range p.AttrSites[a] {
				p.AttrSites[a][s] = r.Intn(4) == 0
			}
		}
		q := p.Clone()
		if p.Repair(m) != q.Repair(bound) || !reflect.DeepEqual(p, q) {
			return false
		}
		return p.Validate(m) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestCarryByName: a layout carried by name survives a delta that renumbers
// attributes (a column added to R, not the last table), and what the delta
// added is left unplaced for Repair — and for CheckConstraintsPartial to
// skip.
func TestCarryByName(t *testing.T) {
	m := testModel(t)
	p := testPartitioning(m)
	cons := &Constraints{PinTxns: []PinTxn{{Txn: "T3", Site: 1}}}
	grown := WorkloadDelta{Ops: []DeltaOp{
		AddAttr{Table: "R", Attr: Attribute{Name: "a4", Width: 2}},
		AddQuery{Txn: "T3", Query: NewRead("q4", "R", []string{"a4"}, 1, 1)},
	}}
	next, err := ApplyDelta(testInstance(), grown)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewModelConstrained(next, m.Options(), cons)
	if err != nil {
		t.Fatal(err)
	}
	if attrID(t, m2, "S", "b1") == attrID(t, m, "S", "b1") {
		t.Fatal("fixture delta no longer renumbers S")
	}

	got, err := Carry(m, p, m2)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < m.NumAttrs(); a++ {
		q := m.Attr(a).Qualified
		if id, _ := m2.AttrID(q); !slices.Equal(got.AttrSites[id], p.AttrSites[a]) {
			t.Errorf("%s placed on %v, recorded %v", q, got.AttrSites[id], p.AttrSites[a])
		}
	}
	if got.Replicas(attrID(t, m2, "R", "a4")) != 0 {
		t.Error("the added attribute was placed")
	}
	t3, _ := m2.TxnIndex("T3")
	if got.TxnSite[0] != 0 || got.TxnSite[1] != 1 || got.TxnSite[t3] != -1 {
		t.Errorf("transaction sites %v, want [0 1 -1]", got.TxnSite)
	}
	if err := m2.CheckConstraintsPartial(got); err != nil {
		t.Errorf("partial check judged the unplaced pinned transaction: %v", err)
	}
	repaired, err := Carry(nil, got, m2)
	if err != nil {
		t.Fatal(err)
	}
	repaired.Repair(m2)
	if err := repaired.Validate(m2); err != nil {
		t.Fatalf("repair left the carried layout infeasible: %v", err)
	}
	if err := m2.CheckConstraints(got); err == nil {
		t.Error("full check accepted the unplaced pinned transaction")
	}

	// Names the target model lacks are an error.
	if _, err := Carry(m2, got, testModel(t)); err == nil {
		t.Error("layout naming an unknown attribute carried")
	}
}

// TestCarryByIndex: without a source model, Carry takes the layout's indices
// to be the target model's. What the layout predates is left unplaced, and
// Repair places it as a warm start needs; a layout larger than the model
// (dimensions never shrink under a delta) or malformed is rejected.
func TestCarryByIndex(t *testing.T) {
	m := testModel(t)
	p := testPartitioning(m)
	next, err := ApplyDelta(testInstance(), WorkloadDelta{Ops: []DeltaOp{
		AddAttr{Table: "S", Attr: Attribute{Name: "b3", Width: 2}},
		AddQuery{Txn: "T3", Query: NewRead("q4", "S", []string{"b3"}, 1, 1)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewModel(next, m.Options())
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		to   *Model
		txns []int
	}{
		{"same dimensions", m, []int{0, 1}},
		{"grown dimensions", m2, []int{0, 1, -1}},
	} {
		got, err := Carry(nil, p, tc.to)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(got.TxnSite, tc.txns) {
			t.Errorf("%s: transaction sites %v, want %v", tc.name, got.TxnSite, tc.txns)
		}
		for a := range got.AttrSites {
			want := make([]bool, p.Sites)
			if a < len(p.AttrSites) {
				want = p.AttrSites[a]
			}
			if !slices.Equal(got.AttrSites[a], want) {
				t.Errorf("%s: attribute %d on %v, want %v", tc.name, a, got.AttrSites[a], want)
			}
		}
		got.Repair(tc.to)
		if err := got.Validate(tc.to); err != nil {
			t.Errorf("%s: repaired layout infeasible: %v", tc.name, err)
		}
	}

	short := p.Clone()
	short.AttrSites[1] = short.AttrSites[1][:1]
	for _, tc := range []struct {
		name string
		p    *Partitioning
		want string
	}{
		{"more attributes than the model", NewPartitioning(2, m.NumAttrs()+1, 2), "cannot shrink"},
		{"more transactions than the model", NewPartitioning(3, m.NumAttrs(), 2), "cannot shrink"},
		{"nil layout", nil, "nil partitioning"},
		{"zero sites", NewPartitioning(2, m.NumAttrs(), 0), "site count"},
		{"wrong site slots", short, "site slots"},
	} {
		if _, err := Carry(nil, tc.p, m); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Carry returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestAssignmentDottedNames: table and attribute names may contain dots.
// FromAssignment resolves "Table.Attr" strings at whichever dot names an
// attribute, and rejects a string that names two; Carry keeps such
// attributes apart.
func TestAssignmentDottedNames(t *testing.T) {
	inst := &Instance{
		Name: "dotted",
		Schema: Schema{Tables: []Table{
			{Name: "a", Attributes: []Attribute{{Name: "b.c", Width: 4}}},
			{Name: "a.b", Attributes: []Attribute{{Name: "c", Width: 4}, {Name: "d", Width: 4}}},
		}},
		Workload: Workload{Transactions: []Transaction{
			{Name: "T1", Queries: []Query{NewRead("q1", "a", []string{"b.c"}, 1, 1)}},
			{Name: "T2", Queries: []Query{NewRead("q2", "a.b", []string{"c", "d"}, 1, 1)}},
		}},
	}
	m, err := NewModel(inst, DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPartitioning(2, 3, 2)
	p.TxnSite[1] = 1
	p.AttrSites[attrID(t, m, "a", "b.c")][0] = true
	p.AttrSites[attrID(t, m, "a.b", "c")][1] = true
	p.AttrSites[attrID(t, m, "a.b", "d")][1] = true

	got, err := FromAssignment(m, &Assignment{Sites: 2, Attributes: map[string][]int{"a.b.d": {1}}})
	if err != nil {
		t.Fatalf("dotted table name: %v", err)
	}
	if !got.AttrSites[attrID(t, m, "a.b", "d")][1] {
		t.Error("a.b.d not placed on site 1")
	}
	if _, err := FromAssignment(m, p.ToAssignment(m)); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("a.b.c names two attributes, FromAssignment returned %v", err)
	}

	back, err := Carry(m, p, m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, p) {
		t.Errorf("by-name round trip gave %+v, want %+v", back, p)
	}
}
