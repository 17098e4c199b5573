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

// TestApplyDeltaErrors exercises the validation paths: each failed delta
// reports its op and the first check it failed, and leaves the source
// instance as it was.
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
	before := inst.Clone()
	cases := []struct {
		name string
		ops  []DeltaOp
		want string
	}{
		{"remove last query", []DeltaOp{RemoveQuery{Txn: "x", Query: "q"}},
			`delta remove-query x/q: cannot remove the last query of transaction "x" (scale its frequency down instead)`},
		{"remove unknown query", []DeltaOp{RemoveQuery{Txn: "x", Query: "nope"}},
			`delta remove-query x/nope: transaction "x" has no query "nope"`},
		{"remove unknown txn", []DeltaOp{RemoveQuery{Txn: "nope", Query: "q"}},
			`delta remove-query nope/q: workload has no transaction "nope"`},
		{"scale unknown query", []DeltaOp{ScaleFreq{Txn: "x", Query: "nope", Factor: 2}},
			`delta scale-freq x/nope ×2: transaction "x" has no query "nope"`},
		{"scale unknown txn", []DeltaOp{ScaleFreq{Txn: "nope", Query: "q", Factor: 2}},
			`delta scale-freq nope/q ×2: workload has no transaction "nope"`},
		{"scale non-positive", []DeltaOp{ScaleFreq{Txn: "x", Query: "q", Factor: 0}},
			"delta scale-freq x/q ×0: non-positive factor"},
		{"scale by NaN", []DeltaOp{ScaleFreq{Txn: "x", Query: "q", Factor: math.NaN()}},
			"delta scale-freq x/q ×NaN: non-finite factor"},
		{"scale by +Inf", []DeltaOp{ScaleFreq{Txn: "x", Query: "q", Factor: math.Inf(1)}},
			"delta scale-freq x/q ×+Inf: non-finite factor"},
		// Each op's factor is finite, but together they overflow the
		// frequency, or underflow it to zero.
		{"scale to +Inf", []DeltaOp{ScaleFreq{Txn: "x", Query: "q", Factor: 1e300}, ScaleFreq{Txn: "x", Query: "q", Factor: 1e300}},
			"delta scale-freq x/q ×1e+300: scaled frequency +Inf is not finite"},
		{"scale to zero", []DeltaOp{ScaleFreq{Txn: "x", Query: "q", Factor: 1e-300}, ScaleFreq{Txn: "x", Query: "q", Factor: 1e-300}},
			"delta scale-freq x/q ×1e-300: scaled frequency 0 is not positive"},
		{"add duplicate query", []DeltaOp{AddQuery{Txn: "x", Query: NewRead("q", "T", []string{"a"}, 1, 1)}},
			`delta add-query x/q: transaction "x" already has a query "q"`},
		{"add query empty txn", []DeltaOp{AddQuery{Query: NewRead("q2", "T", []string{"a"}, 1, 1)}},
			"delta add-query /q2: empty transaction name"},
		{"add query unknown table", []DeltaOp{AddQuery{Txn: "x", Query: NewRead("q2", "U", []string{"a"}, 1, 1)}},
			`delta add-query x/q2: workload: query x/q2 references unknown table "U"`},
		{"add query unknown attr", []DeltaOp{AddQuery{Txn: "x", Query: NewRead("q2", "T", []string{"zz"}, 1, 1)}},
			"delta add-query x/q2: workload: query x/q2 references unknown attribute T.zz"},
		// Ops apply in order: a query naming a column a later op adds fails.
		{"add query before its attr", []DeltaOp{
			AddQuery{Txn: "x", Query: NewRead("q2", "T", []string{"a"}, 1, 1)},
			AddQuery{Txn: "x", Query: NewRead("q3", "T", []string{"b"}, 1, 1)},
			AddAttr{Table: "T", Attr: Attribute{Name: "b", Width: 4}},
		}, "delta add-query x/q3: workload: query x/q3 references unknown attribute T.b"},
		{"add attr unknown table", []DeltaOp{AddAttr{Table: "U", Attr: Attribute{Name: "b", Width: 4}}},
			`delta add-attr U.b: schema has no table "U"`},
		{"add duplicate attr", []DeltaOp{AddAttr{Table: "T", Attr: Attribute{Name: "a", Width: 4}}},
			`delta add-attr T.a: table "T" already has an attribute "a"`},
		{"add attr empty name", []DeltaOp{AddAttr{Table: "T", Attr: Attribute{Width: 4}}},
			"delta add-attr T.: empty attribute name"},
		{"add attr bad width", []DeltaOp{AddAttr{Table: "T", Attr: Attribute{Name: "b", Width: 0}}},
			"delta add-attr T.b: non-positive width 0"},
		// A later op fails against what the earlier ops of the delta built.
		{"remove after remove", []DeltaOp{
			AddQuery{Txn: "x", Query: NewRead("q2", "T", []string{"a"}, 1, 1)},
			RemoveQuery{Txn: "x", Query: "q"},
			RemoveQuery{Txn: "x", Query: "q2"},
		}, `delta remove-query x/q2: cannot remove the last query of transaction "x" (scale its frequency down instead)`},
		{"add twice", []DeltaOp{
			AddQuery{Txn: "y", Query: NewRead("q", "T", []string{"a"}, 1, 1)},
			AddQuery{Txn: "y", Query: NewRead("q", "T", []string{"a"}, 1, 1)},
		}, `delta add-query y/q: transaction "y" already has a query "q"`},
		{"nil op", []DeltaOp{nil}, "delta: unknown op type <nil>"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ApplyDelta(inst, WorkloadDelta{Ops: tc.ops})
			if err == nil || err.Error() != tc.want {
				t.Fatalf("error %v, want %q", err, tc.want)
			}
			if !reflect.DeepEqual(inst, before) {
				t.Fatal("failed delta mutated the source instance")
			}
		})
	}
	if _, err := ApplyDelta(nil, WorkloadDelta{}); err == nil || err.Error() != "delta: nil instance" {
		t.Fatalf("nil instance: error %v", err)
	}
}

// TestApplyDeltaMultiOp applies deltas whose later ops edit what earlier ops
// of the same delta edited or added. The result must equal the source edited
// by hand, the source must be unchanged, and every transaction and table the
// delta names nowhere must still share the source's memory.
func TestApplyDeltaMultiOp(t *testing.T) {
	base := func() *Instance {
		return &Instance{
			Name: "multi",
			Schema: Schema{Tables: []Table{
				{Name: "T", Attributes: []Attribute{{Name: "a", Width: 4}, {Name: "b", Width: 8}}},
				{Name: "U", Attributes: []Attribute{{Name: "c", Width: 2}}},
			}},
			Workload: Workload{Transactions: []Transaction{
				{Name: "x", Queries: []Query{
					NewRead("q", "T", []string{"a"}, 1, 1),
					NewWrite("r", "T", []string{"b"}, 2, 3),
				}},
				{Name: "y", Queries: []Query{NewRead("s", "U", []string{"c"}, 1, 5)}},
			}},
		}
	}
	newRead := NewRead("n", "U", []string{"c"}, 1, 1)
	cases := []struct {
		name string
		ops  []DeltaOp
		want func(in *Instance)
	}{
		{"two scales in one transaction", []DeltaOp{
			ScaleFreq{Txn: "x", Query: "q", Factor: 2},
			ScaleFreq{Txn: "x", Query: "r", Factor: 0.5},
			ScaleFreq{Txn: "x", Query: "q", Factor: 3},
		}, func(in *Instance) {
			in.Workload.Transactions[0].Queries[0].Frequency = 6
			in.Workload.Transactions[0].Queries[1].Frequency = 1.5
		}},
		{"add then scale the added query", []DeltaOp{
			AddQuery{Txn: "x", Query: newRead},
			ScaleFreq{Txn: "x", Query: "n", Factor: 4},
		}, func(in *Instance) {
			q := newRead
			q.Frequency = 4
			in.Workload.Transactions[0].Queries = append(in.Workload.Transactions[0].Queries, q)
		}},
		{"add a transaction then scale it", []DeltaOp{
			AddQuery{Txn: "z", Query: newRead},
			ScaleFreq{Txn: "z", Query: "n", Factor: 4},
			AddQuery{Txn: "z", Query: NewRead("m", "T", []string{"a", "b"}, 1, 1)},
		}, func(in *Instance) {
			q := newRead
			q.Frequency = 4
			in.Workload.Transactions = append(in.Workload.Transactions, Transaction{
				Name:    "z",
				Queries: []Query{q, NewRead("m", "T", []string{"a", "b"}, 1, 1)},
			})
		}},
		{"scale then remove in one transaction", []DeltaOp{
			ScaleFreq{Txn: "x", Query: "r", Factor: 2},
			RemoveQuery{Txn: "x", Query: "q"},
		}, func(in *Instance) {
			r := in.Workload.Transactions[0].Queries[1]
			r.Frequency = 6
			in.Workload.Transactions[0].Queries = []Query{r}
		}},
		{"remove then add back", []DeltaOp{
			RemoveQuery{Txn: "x", Query: "q"},
			AddQuery{Txn: "x", Query: NewRead("q", "T", []string{"b"}, 1, 7)},
		}, func(in *Instance) {
			tx := &in.Workload.Transactions[0]
			tx.Queries = []Query{tx.Queries[1], NewRead("q", "T", []string{"b"}, 1, 7)}
		}},
		{"add attr then a query naming it", []DeltaOp{
			AddQuery{Txn: "x", Query: NewRead("n", "U", []string{"c"}, 1, 1)},
			AddAttr{Table: "U", Attr: Attribute{Name: "d", Width: 16}},
			AddQuery{Txn: "x", Query: NewRead("o", "U", []string{"d", "c"}, 2, 1)},
			AddAttr{Table: "U", Attr: Attribute{Name: "e", Width: 1}},
		}, func(in *Instance) {
			u := &in.Schema.Tables[1]
			u.Attributes = append(u.Attributes, Attribute{Name: "d", Width: 16}, Attribute{Name: "e", Width: 1})
			tx := &in.Workload.Transactions[0]
			tx.Queries = append(tx.Queries, NewRead("n", "U", []string{"c"}, 1, 1), NewRead("o", "U", []string{"d", "c"}, 2, 1))
		}},
		{"empty delta", nil, func(*Instance) {}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst := base()
			before := inst.Clone()
			got, err := ApplyDelta(inst, WorkloadDelta{Ops: tc.ops})
			if err != nil {
				t.Fatal(err)
			}
			if got == inst {
				t.Fatal("ApplyDelta returned its input")
			}
			if !reflect.DeepEqual(inst, before) {
				t.Fatal("delta mutated the source instance")
			}
			want := base()
			tc.want(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("got %+v\nwant %+v", got.Workload, want.Workload)
			}
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
			named := map[string]bool{}
			for _, op := range tc.ops {
				switch op := op.(type) {
				case AddQuery:
					named[op.Txn] = true
				case RemoveQuery:
					named[op.Txn] = true
				case ScaleFreq:
					named[op.Txn] = true
				case AddAttr:
					named[op.Table] = true
				}
			}
			for i, tx := range inst.Workload.Transactions {
				if !named[tx.Name] && &got.Workload.Transactions[i].Queries[0] != &tx.Queries[0] {
					t.Errorf("untouched transaction %q was copied", tx.Name)
				}
			}
			for i, tbl := range inst.Schema.Tables {
				if !named[tbl.Name] && &got.Schema.Tables[i].Attributes[0] != &tbl.Attributes[0] {
					t.Errorf("untouched table %q was copied", tbl.Name)
				}
			}
		})
	}
}

// TestTouchAllocs: a delta copies the instance once, and a transaction's
// queries on its first edit, so scaling 64 queries of one transaction of a
// 16×128 workload allocates a small constant, never per op.
func TestTouchAllocs(t *testing.T) {
	inst := rangeInstance(1, 16, 16*128)
	var d WorkloadDelta
	for _, q := range inst.Workload.Transactions[3].Queries[:64] {
		d.Ops = append(d.Ops, ScaleFreq{Txn: "txn3", Query: q.Name, Factor: 2})
	}
	if _, err := d.Touch(inst, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		_, _ = d.Touch(inst, nil)
	})
	t.Logf("%v allocations for %d ops", allocs, len(d.Ops))
	if allocs > 16 {
		t.Fatalf("a %d-op delta allocates %v times, want at most 16", len(d.Ops), allocs)
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

	// A RemoveQuery marks its transaction and the tables the removed query
	// accessed.
	for _, tx := range inst.Workload.Transactions {
		if len(tx.Queries) < 2 {
			continue
		}
		q := tx.Queries[len(tx.Queries)-1]
		ds := NewDirtySet()
		if _, err := (WorkloadDelta{Ops: []DeltaOp{RemoveQuery{Txn: tx.Name, Query: q.Name}}}).Touch(inst, ds); err != nil {
			t.Fatal(err)
		}
		want := NewDirtySet()
		want.Txns[tx.Name] = true
		for _, acc := range q.Accesses {
			want.Tables[acc.Table] = true
		}
		if !reflect.DeepEqual(ds, want) {
			t.Errorf("RemoveQuery marked %s, want %s", ds, want)
		}
		return
	}
	t.Fatal("no transaction with two queries to remove one from")
}
