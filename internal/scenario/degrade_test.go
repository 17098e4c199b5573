package scenario

import (
	"slices"
	"testing"

	"vpart/internal/core"
)

// degradeFixture compiles tab(a:8, b:4, c:2) with t0 reading a,b and t1
// reading c — small enough to check the surgery helpers by hand.
func degradeFixture(t *testing.T) *core.Model {
	t.Helper()
	inst := &core.Instance{Name: "degrade"}
	inst.Schema.Tables = []core.Table{{Name: "tab", Attributes: []core.Attribute{
		{Name: "a", Width: 8}, {Name: "b", Width: 4}, {Name: "c", Width: 2},
	}}}
	inst.Workload.Transactions = []core.Transaction{
		{Name: "t0", Queries: []core.Query{{
			Name: "r0", Kind: core.Read, Frequency: 1,
			Accesses: []core.TableAccess{{Table: "tab", Attributes: []string{"a", "b"}, Rows: 1}},
		}}},
		{Name: "t1", Queries: []core.Query{{
			Name: "r1", Kind: core.Read, Frequency: 1,
			Accesses: []core.TableAccess{{Table: "tab", Attributes: []string{"c"}, Rows: 1}},
		}}},
	}
	m, err := core.NewModel(inst, core.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPadLayoutGrowsDimensions(t *testing.T) {
	m := degradeFixture(t)
	// A layout predating t1 and attribute c: one txn, two attrs, two sites.
	p := core.NewPartitioning(1, 2, 2)
	p.TxnSite[0] = 1
	p.AttrSites[0][1] = true    // a on site 1
	p.AttrSites[1][1] = true    // b on site 1
	down := []bool{true, false} // site 0 down: the pad must avoid it

	out, err := padLayout(nil, p, m, down)
	if err != nil {
		t.Fatal(err)
	}
	if p.Replicas(0) != 1 || len(p.AttrSites) != 2 {
		t.Fatal("padLayout mutated its input")
	}
	if out.TxnSite[0] != 1 || !out.AttrSites[0][1] || !out.AttrSites[1][1] {
		t.Fatalf("existing assignment not preserved: %+v", out)
	}
	// New attribute c: lowest live site is 1.
	if out.AttrSites[2][0] || !out.AttrSites[2][1] {
		t.Fatalf("new attribute placed on %v, want live site 1", out.AttrSites[2])
	}
	// New transaction t1 reads c, now on site 1.
	if out.TxnSite[1] != 1 {
		t.Fatalf("new transaction on site %d, want 1", out.TxnSite[1])
	}
	// No read replication: t1's placement used existing replicas only.
	if out.Replicas(2) != 1 {
		t.Fatalf("padLayout replicated: attribute c on %d sites", out.Replicas(2))
	}

	// A layout that predates an AddAttr on the first of two tables: the new
	// column renumbers every attribute of the second, so each placement must
	// follow its name, not its index.
	two := m.Instance().Clone()
	two.Schema.Tables = append(two.Schema.Tables, core.Table{Name: "log", Attributes: []core.Attribute{{Name: "d", Width: 1}}})
	before, err := core.NewModel(two, core.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	grown, err := core.ApplyDelta(two, core.WorkloadDelta{Ops: []core.DeltaOp{
		core.AddAttr{Table: "tab", Attr: core.Attribute{Name: "e", Width: 1}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	after, err := core.NewModel(grown, core.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := core.NewPartitioning(2, 4, 3)
	q.TxnSite[0], q.TxnSite[1] = 1, 2
	q.AttrSites[0][1] = true                          // a on site 1
	q.AttrSites[1][1], q.AttrSites[1][2] = true, true // b on sites 1 and 2
	q.AttrSites[2][2] = true                          // c on site 2
	q.AttrSites[3][2] = true                          // log.d on site 2
	down = []bool{true, false, false}
	out, err = padLayout(before, q, after, down)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < before.NumAttrs(); a++ {
		name := before.Attr(a).Qualified
		if id, _ := after.AttrID(name); !slices.Equal(out.AttrSites[id], q.AttrSites[a]) {
			t.Errorf("%s on %v, recorded %v", name, out.AttrSites[id], q.AttrSites[a])
		}
	}
	if e, _ := after.AttrID(core.QualifiedAttr{Table: "tab", Attr: "e"}); !slices.Equal(out.AttrSites[e], []bool{false, true, false}) {
		t.Errorf("new attribute on %v, want the lowest live site 1", out.AttrSites[e])
	}
	if !slices.Equal(out.TxnSite, q.TxnSite) {
		t.Errorf("transactions on %v, recorded %v", out.TxnSite, q.TxnSite)
	}
}

func TestDegradeSiteLoss(t *testing.T) {
	m := degradeFixture(t)
	p := core.NewPartitioning(2, 3, 3)
	p.TxnSite[0] = 1 // t0 on the dying site
	p.TxnSite[1] = 0
	p.AttrSites[0][1] = true                          // a only on site 1: orphaned by the loss
	p.AttrSites[1][0], p.AttrSites[1][1] = true, true // b replicated: loses one replica
	p.AttrSites[2][0] = true                          // c untouched

	down := []bool{false, true, false}
	out := degradeSiteLoss(m, p, 1, down)
	if !p.AttrSites[0][1] {
		t.Fatal("degradeSiteLoss mutated its input")
	}
	for a := 0; a < 3; a++ {
		if out.AttrSites[a][1] {
			t.Fatalf("attribute %d still on the dead site", a)
		}
		if out.Replicas(a) == 0 {
			t.Fatalf("attribute %d orphaned", a)
		}
	}
	// a (width 8) re-homes to the least-used live site: site 2 (empty) beats
	// site 0 (b:4 + c:2).
	if !out.AttrSites[0][2] {
		t.Fatalf("orphaned attribute re-homed to %v, want site 2", out.AttrSites[0])
	}
	// t0 moves to the live site with most of its read width: a(8)@2 beats
	// b(4)@0.
	if out.TxnSite[0] != 2 {
		t.Fatalf("t0 moved to site %d, want 2", out.TxnSite[0])
	}
	// No read replication: t0 still lacks b at its new site — the degraded
	// layout pays that remote read.
	if out.AttrSites[1][2] {
		t.Fatal("degradeSiteLoss replicated a read attribute")
	}
	if out.TxnSite[1] != 0 {
		t.Fatalf("unaffected transaction moved to %d", out.TxnSite[1])
	}
}

func TestEvictToCapacity(t *testing.T) {
	m := degradeFixture(t)
	p := core.NewPartitioning(2, 3, 2)
	// Site 0 holds everything (14 bytes); a is also replicated on site 1.
	p.AttrSites[0][0], p.AttrSites[0][1] = true, true
	p.AttrSites[1][0] = true
	p.AttrSites[2][0] = true

	out := evictToCapacity(m, p, 0, 5, nil)
	usage := core.SiteWidthUsage(m, out)
	if usage[0] > 5 {
		t.Fatalf("site 0 usage %d exceeds the 5-byte capacity", usage[0])
	}
	// Widest first: a's surplus replica dropped (it survives on site 1), then
	// b (single replica) moved; c (2 bytes) stays.
	if out.AttrSites[0][0] || !out.AttrSites[0][1] {
		t.Fatalf("a: want the site-0 replica dropped, got %v", out.AttrSites[0])
	}
	if out.AttrSites[1][0] || !out.AttrSites[1][1] {
		t.Fatalf("b: want moved to site 1, got %v", out.AttrSites[1])
	}
	if !out.AttrSites[2][0] {
		t.Fatal("c evicted although the capacity was already met")
	}
	// t0 reads a and b, both now homed on site 1: it must have followed them
	// off the shrunk site, so a constraint-aware Repair will not replicate
	// them back.
	if out.TxnSite[0] != 1 {
		t.Fatalf("t0 on site %d, want 1", out.TxnSite[0])
	}
	// t1 reads only c, which stayed: it keeps its home.
	if out.TxnSite[1] != 0 {
		t.Fatalf("t1 on site %d, want 0", out.TxnSite[1])
	}

	// The evicted layout must pass a constraint-aware repair without the
	// shrunk site regaining bytes: that is what the advisor's Adopt runs.
	mc, err := core.NewModelConstrained(m.Instance(), core.DefaultModelOptions(),
		&core.Constraints{SiteCapacities: []core.SiteCapacity{{Site: 0, Bytes: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	adapted := out.Clone()
	adapted.Repair(mc)
	if err := adapted.Validate(mc); err != nil {
		t.Fatalf("evicted layout does not survive constraint-aware repair: %v", err)
	}
}
