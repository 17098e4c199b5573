package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randInstance builds a small random but valid instance: a hand-rolled
// generator (internal tests cannot import randgen — it would cycle).
func randInstance(rng *rand.Rand, tables, txns int) *Instance {
	inst := &Instance{Name: fmt.Sprintf("delta-rnd-%dx%d", tables, txns)}
	for ti := 0; ti < tables; ti++ {
		tbl := Table{Name: fmt.Sprintf("T%02d", ti)}
		for ai := 0; ai < 2+rng.Intn(5); ai++ {
			tbl.Attributes = append(tbl.Attributes, Attribute{
				Name:  fmt.Sprintf("a%02d", ai),
				Width: 4 * (1 + rng.Intn(3)),
			})
		}
		inst.Schema.Tables = append(inst.Schema.Tables, tbl)
	}
	for xi := 0; xi < txns; xi++ {
		txn := Transaction{Name: fmt.Sprintf("txn%02d", xi)}
		for qi := 0; qi < 1+rng.Intn(3); qi++ {
			txn.Queries = append(txn.Queries, randQuery(rng, inst, fmt.Sprintf("q%02d", qi)))
		}
		inst.Workload.Transactions = append(inst.Workload.Transactions, txn)
	}
	if err := inst.Validate(); err != nil {
		panic(err)
	}
	return inst
}

// randQuery draws a random read or write query over 1-2 distinct tables of
// the instance.
func randQuery(rng *rand.Rand, inst *Instance, name string) Query {
	kind := Read
	if rng.Intn(100) < 35 {
		kind = Write
	}
	q := Query{Name: name, Kind: kind, Frequency: float64(1+rng.Intn(8)) * 0.5}
	nTab := 1 + rng.Intn(2)
	perm := rng.Perm(len(inst.Schema.Tables))[:nTab]
	for _, ti := range perm {
		tbl := inst.Schema.Tables[ti]
		seen := map[string]bool{}
		var attrs []string
		for i := 0; i < 1+rng.Intn(len(tbl.Attributes)); i++ {
			a := tbl.Attributes[rng.Intn(len(tbl.Attributes))].Name
			if !seen[a] {
				seen[a] = true
				attrs = append(attrs, a)
			}
		}
		q.Accesses = append(q.Accesses, TableAccess{
			Table:      tbl.Name,
			Attributes: attrs,
			Rows:       float64(1 + rng.Intn(10)),
		})
	}
	return q
}

// TestApplyDeltaErrors exercises the validation paths.
func TestApplyDeltaErrors(t *testing.T) {
	inst := &Instance{
		Name: "mini",
		Schema: Schema{Tables: []Table{
			{Name: "T", Attributes: []Attribute{{Name: "a", Width: 4}}},
		}},
		Workload: Workload{Transactions: []Transaction{
			{Name: "x", Queries: []Query{NewRead("q", "T", []string{"a"}, 1, 1)}},
		}},
	}
	cases := []struct {
		name string
		op   DeltaOp
	}{
		{"remove last query", RemoveQuery{Txn: "x", Query: "q"}},
		{"remove unknown query", RemoveQuery{Txn: "x", Query: "nope"}},
		{"remove unknown txn", RemoveQuery{Txn: "nope", Query: "q"}},
		{"scale unknown query", ScaleFreq{Txn: "x", Query: "nope", Factor: 2}},
		{"scale non-positive", ScaleFreq{Txn: "x", Query: "q", Factor: 0}},
		{"scale by NaN", ScaleFreq{Txn: "x", Query: "q", Factor: math.NaN()}},
		{"scale by +Inf", ScaleFreq{Txn: "x", Query: "q", Factor: math.Inf(1)}},
		{"add duplicate query", AddQuery{Txn: "x", Query: NewRead("q", "T", []string{"a"}, 1, 1)}},
		{"add query unknown table", AddQuery{Txn: "x", Query: NewRead("q2", "U", []string{"a"}, 1, 1)}},
		{"add query unknown attr", AddQuery{Txn: "x", Query: NewRead("q2", "T", []string{"zz"}, 1, 1)}},
		{"add attr unknown table", AddAttr{Table: "U", Attr: Attribute{Name: "b", Width: 4}}},
		{"add duplicate attr", AddAttr{Table: "T", Attr: Attribute{Name: "a", Width: 4}}},
		{"add attr bad width", AddAttr{Table: "T", Attr: Attribute{Name: "b", Width: 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ApplyDelta(inst, WorkloadDelta{Ops: []DeltaOp{tc.op}}); err == nil {
				t.Fatalf("op %s applied without error", tc.op)
			}
		})
	}
	// Each op's factor is finite, but together they overflow the frequency.
	t.Run("scale to +Inf", func(t *testing.T) {
		op := ScaleFreq{Txn: "x", Query: "q", Factor: 1e300}
		_, err := ApplyDelta(inst, WorkloadDelta{Ops: []DeltaOp{op, op}})
		if want := "delta scale-freq x/q ×1e+300: scaled frequency +Inf is not finite"; err == nil || err.Error() != want {
			t.Fatalf("error %v, want %q", err, want)
		}
	})
	// The failed ops must not have mutated the source instance.
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(inst.Workload.Transactions[0].Queries) != 1 || len(inst.Schema.Tables[0].Attributes) != 1 {
		t.Fatal("failed delta mutated the source instance")
	}
}

// TestDirtySetTouch checks the dirty marking used for shard reuse.
func TestDirtySetTouch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inst := randInstance(rng, 3, 4)
	tx := inst.Workload.Transactions[1]
	q := tx.Queries[0]
	d := WorkloadDelta{Ops: []DeltaOp{
		ScaleFreq{Txn: tx.Name, Query: q.Name, Factor: 2},
		AddAttr{Table: inst.Schema.Tables[2].Name, Attr: Attribute{Name: "fresh", Width: 4}},
	}}
	ds := NewDirtySet()
	next, err := d.Touch(inst, ds)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := ApplyDelta(inst, d); !reflect.DeepEqual(next, want) {
		t.Error("Touch's instance differs from ApplyDelta's")
	}
	if !ds.Txns[tx.Name] {
		t.Errorf("transaction %q not marked dirty", tx.Name)
	}
	for _, acc := range q.Accesses {
		if !ds.Tables[acc.Table] {
			t.Errorf("table %q not marked dirty", acc.Table)
		}
	}
	if !ds.Tables[inst.Schema.Tables[2].Name] {
		t.Errorf("grown table not marked dirty")
	}
	if ds.Empty() {
		t.Error("Empty() on a non-empty set")
	}
	if !ds.Touches([]string{inst.Schema.Tables[2].Name}, nil) {
		t.Error("Touches missed a dirty table")
	}
	if ds.Touches([]string{"no-such-table"}, []string{"no-such-txn"}) {
		t.Error("Touches reported a clean component dirty")
	}
	clone := ds.Clone()
	clone.Tables["extra"] = true
	if ds.Tables["extra"] {
		t.Error("Clone shares maps with the original")
	}
}
