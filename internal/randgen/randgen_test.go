package randgen

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"vpart/internal/core"
)

func TestGenerateValidInstances(t *testing.T) {
	p := DefaultParams(20, 20)
	inst, err := Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Validate(); err != nil {
		t.Fatalf("generated instance invalid: %v", err)
	}
	st := inst.Stats()
	if st.Transactions != 20 {
		t.Errorf("|T| = %d, want 20", st.Transactions)
	}
	if st.Tables != 20 {
		t.Errorf("tables = %d, want 20", st.Tables)
	}
	if st.Attributes < 20 || st.Attributes > 20*15 {
		t.Errorf("|A| = %d outside [20, 300]", st.Attributes)
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	p := DefaultParams(10, 10)
	a, err := Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("same seed gave different instances: %v vs %v", a.Stats(), b.Stats())
	}
	c, err := Generate(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats() == c.Stats() {
		t.Log("different seeds produced identical statistics (possible but unlikely)")
	}
}

func TestGenerateRespectsBounds(t *testing.T) {
	p := Params{
		Name: "bounds", Transactions: 12, Tables: 6,
		MaxQueriesPerTxn: 2, UpdatePercent: 100, MaxAttrsPerTable: 4,
		MaxTableRefsPerQuery: 2, MaxAttrRefsPerQuery: 3,
		AttrWidths: []int{16}, MaxRowsPerQuery: 5,
	}
	inst, err := Generate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range inst.Schema.Tables {
		if len(tbl.Attributes) > 4 {
			t.Errorf("table %s has %d attributes, bound is 4", tbl.Name, len(tbl.Attributes))
		}
		for _, a := range tbl.Attributes {
			if a.Width != 16 {
				t.Errorf("attribute width %d, allowed set is {16}", a.Width)
			}
		}
	}
	for _, txn := range inst.Workload.Transactions {
		// With 100% updates every logical query becomes two sub-queries.
		if len(txn.Queries) > 2*2 {
			t.Errorf("transaction %s has %d queries, bound is 4 (2 logical × split)", txn.Name, len(txn.Queries))
		}
		for _, q := range txn.Queries {
			if len(q.Accesses) > 2 {
				t.Errorf("query %s references %d tables, bound is 2", q.Name, len(q.Accesses))
			}
			refs := 0
			for _, acc := range q.Accesses {
				refs += len(acc.Attributes)
				if acc.Rows < 1 || acc.Rows > 5 {
					t.Errorf("query %s rows %g outside [1,5]", q.Name, acc.Rows)
				}
			}
			if refs > 3+1 { // at least one attr per table may exceed E slightly when D > E
				t.Errorf("query %s references %d attributes, bound is 3", q.Name, refs)
			}
		}
	}
}

func TestUpdatePercentExtremes(t *testing.T) {
	noUpdates, err := Generate(Params{
		Name: "reads-only", Transactions: 10, Tables: 5, MaxQueriesPerTxn: 3,
		UpdatePercent: 0, MaxAttrsPerTable: 8, MaxTableRefsPerQuery: 2,
		MaxAttrRefsPerQuery: 6, AttrWidths: []int{4},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if noUpdates.Stats().WriteQueries != 0 {
		t.Errorf("UpdatePercent=0 produced %d write queries", noUpdates.Stats().WriteQueries)
	}

	allUpdates, err := Generate(Params{
		Name: "writes", Transactions: 10, Tables: 5, MaxQueriesPerTxn: 3,
		UpdatePercent: 100, MaxAttrsPerTable: 8, MaxTableRefsPerQuery: 2,
		MaxAttrRefsPerQuery: 6, AttrWidths: []int{4},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if allUpdates.Stats().WriteQueries == 0 {
		t.Error("UpdatePercent=100 produced no write queries")
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{Transactions: 0, Tables: 1, MaxQueriesPerTxn: 1, MaxAttrsPerTable: 1, MaxTableRefsPerQuery: 1, MaxAttrRefsPerQuery: 1},
		{Transactions: 1, Tables: 0, MaxQueriesPerTxn: 1, MaxAttrsPerTable: 1, MaxTableRefsPerQuery: 1, MaxAttrRefsPerQuery: 1},
		{Transactions: 1, Tables: 1, MaxQueriesPerTxn: 0, MaxAttrsPerTable: 1, MaxTableRefsPerQuery: 1, MaxAttrRefsPerQuery: 1},
		{Transactions: 1, Tables: 1, MaxQueriesPerTxn: 1, MaxAttrsPerTable: 0, MaxTableRefsPerQuery: 1, MaxAttrRefsPerQuery: 1},
		{Transactions: 1, Tables: 1, MaxQueriesPerTxn: 1, MaxAttrsPerTable: 1, MaxTableRefsPerQuery: 0, MaxAttrRefsPerQuery: 1},
		{Transactions: 1, Tables: 1, MaxQueriesPerTxn: 1, MaxAttrsPerTable: 1, MaxTableRefsPerQuery: 1, MaxAttrRefsPerQuery: 0},
		{Transactions: 1, Tables: 1, MaxQueriesPerTxn: 1, MaxAttrsPerTable: 1, MaxTableRefsPerQuery: 1, MaxAttrRefsPerQuery: 1, UpdatePercent: 150},
		{Transactions: 1, Tables: 1, MaxQueriesPerTxn: 1, MaxAttrsPerTable: 1, MaxTableRefsPerQuery: 1, MaxAttrRefsPerQuery: 1, AttrWidths: []int{0}},
	}
	for i, p := range bad {
		if _, err := Generate(p, 1); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestNamedClasses(t *testing.T) {
	classes := NamedClasses()
	if len(classes) != 24 {
		t.Fatalf("NamedClasses returned %d classes, want 24", len(classes))
	}
	seen := map[string]bool{}
	for _, c := range classes {
		if seen[c.Name] {
			t.Errorf("duplicate class %q", c.Name)
		}
		seen[c.Name] = true
		if err := c.Validate(); err != nil {
			t.Errorf("class %q invalid: %v", c.Name, err)
		}
	}
	for _, want := range []string{"rndAt8x15", "rndAt64x100", "rndBt4x15", "rndAt8x15u50", "rndBt16x15u50", "rndAt32x120c4", "rndAt64x240c8"} {
		if !seen[want] {
			t.Errorf("class %q missing", want)
		}
	}
	if p, ok := Class("rndAt8x15"); !ok || p.MaxAttrsPerTable != 30 {
		t.Errorf("Class(rndAt8x15) = %+v, %v", p, ok)
	}
	if _, ok := Class("nope"); ok {
		t.Error("unknown class found")
	}
}

func TestClassAClassBShapes(t *testing.T) {
	a := ClassA(8, 15, 10)
	b := ClassB(8, 15, 10)
	if a.MaxAttrsPerTable <= b.MaxAttrsPerTable {
		t.Error("class A should have wider tables than class B")
	}
	if a.MaxAttrRefsPerQuery >= b.MaxAttrRefsPerQuery {
		t.Error("class B should reference more attributes per query than class A")
	}
	if ClassA(8, 15, 50).Name != "rndAt8x15u50" {
		t.Errorf("u50 naming wrong: %s", ClassA(8, 15, 50).Name)
	}
}

// Property: every generated instance validates and compiles into a model.
func TestGeneratedInstancesAlwaysCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := Params{
			Name:                 "prop",
			Transactions:         1 + r.Intn(20),
			Tables:               1 + r.Intn(10),
			MaxQueriesPerTxn:     1 + r.Intn(5),
			UpdatePercent:        r.Intn(101),
			MaxAttrsPerTable:     1 + r.Intn(20),
			MaxTableRefsPerQuery: 1 + r.Intn(5),
			MaxAttrRefsPerQuery:  1 + r.Intn(20),
			AttrWidths:           []int{2, 4, 8, 16},
			MaxRowsPerQuery:      1 + r.Intn(10),
		}
		inst, err := Generate(p, seed)
		if err != nil {
			t.Logf("generate: %v", err)
			return false
		}
		_, err = core.NewModel(inst, core.DefaultModelOptions())
		if err != nil {
			t.Logf("model: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestComponentsKnob(t *testing.T) {
	for _, c := range []struct {
		components, tables, txns int
		name                     string
	}{
		{4, 32, 120, "rndAt32x120c4"},
		{8, 128, 400, "rndAt128x400c8"}, // the decompose benchmark instance
	} {
		p := MultiComponent(c.components, c.tables, c.txns, 10)
		if p.Name != c.name {
			t.Fatalf("MultiComponent name = %q, want %q", p.Name, c.name)
		}
		inst, err := Generate(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		d, err := core.Decompose(inst, false)
		if err != nil {
			t.Fatal(err)
		}
		if d.NumShards() < c.components {
			t.Fatalf("%s splits into %d components, want >= %d", c.name, d.NumShards(), c.components)
		}
	}
	// The knob must not disturb the unconstrained generator: Components 0
	// and 1 draw the identical random sequence.
	a := DefaultParams(10, 6)
	b := a
	b.Components = 1
	ia, err := Generate(a, 7)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := Generate(b, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ia, ib) {
		t.Error("Components=1 changed the generated instance")
	}
	// Invalid component counts are rejected.
	for _, bad := range []Params{
		MultiComponent(5, 4, 10, 10), // more components than tables
		MultiComponent(5, 10, 4, 10), // more components than transactions
		{Transactions: 1, Tables: 1, MaxQueriesPerTxn: 1, MaxAttrsPerTable: 1,
			MaxTableRefsPerQuery: 1, MaxAttrRefsPerQuery: 1, Components: -1},
	} {
		if _, err := Generate(bad, 1); err == nil {
			t.Errorf("invalid params accepted: %+v", bad)
		}
	}
}
