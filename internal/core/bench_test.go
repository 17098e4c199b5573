package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchInstance builds a mid-size random instance comparable to the paper's
// rndAt32x100 class without importing internal/randgen (which would invert
// the package dependency direction).
func benchInstance(rng *rand.Rand, tables, txns int) *Instance {
	inst := &Instance{Name: "bench"}
	widths := []int{2, 4, 8, 16}
	for ti := 0; ti < tables; ti++ {
		tbl := Table{Name: "t" + string(rune('A'+ti%26)) + string(rune('0'+ti/26))}
		nAttrs := 1 + rng.Intn(30)
		for ai := 0; ai < nAttrs; ai++ {
			tbl.Attributes = append(tbl.Attributes, Attribute{
				Name:  "a" + string(rune('0'+ai%10)) + string(rune('a'+ai/10)),
				Width: widths[rng.Intn(len(widths))],
			})
		}
		inst.Schema.Tables = append(inst.Schema.Tables, tbl)
	}
	for t := 0; t < txns; t++ {
		txn := Transaction{Name: "txn" + string(rune('0'+t%10)) + string(rune('a'+t/10%26)) + string(rune('A'+t/260))}
		for q := 0; q < 1+rng.Intn(3); q++ {
			tbl := inst.Schema.Tables[rng.Intn(tables)]
			var attrs []string
			for _, a := range tbl.Attributes {
				if rng.Intn(4) == 0 {
					attrs = append(attrs, a.Name)
				}
			}
			if len(attrs) == 0 {
				attrs = []string{tbl.Attributes[0].Name}
			}
			name := "q" + string(rune('0'+q))
			if rng.Intn(10) == 0 {
				txn.Queries = append(txn.Queries, NewWrite(name, tbl.Name, attrs, float64(1+rng.Intn(10)), 1))
			} else {
				txn.Queries = append(txn.Queries, NewRead(name, tbl.Name, attrs, float64(1+rng.Intn(10)), 1))
			}
		}
		inst.Workload.Transactions = append(inst.Workload.Transactions, txn)
	}
	return inst
}

// rangeInstance is a YCSB-like instance: tables tables of 11 fields each,
// and n queries spread over txns transactions. Query i reads a range of
// fields of table i mod tables — the first 11 queries one field each, so no
// two attributes share an access signature — and, with more than one table,
// every third query also reads a prefix of the next table.
func rangeInstance(tables, txns, n int) *Instance {
	inst := &Instance{Name: "ranges"}
	for ti := 0; ti < tables; ti++ {
		tbl := Table{Name: fmt.Sprintf("t%d", ti)}
		for ai := 0; ai < 11; ai++ {
			tbl.Attributes = append(tbl.Attributes, Attribute{Name: fmt.Sprintf("f%d", ai), Width: 8})
		}
		inst.Schema.Tables = append(inst.Schema.Tables, tbl)
	}
	fields := func(lo, hi int) []string {
		var names []string
		for ai := lo; ai <= hi; ai++ {
			names = append(names, fmt.Sprintf("f%d", ai))
		}
		return names
	}
	inst.Workload.Transactions = make([]Transaction, txns)
	for i := range inst.Workload.Transactions {
		inst.Workload.Transactions[i].Name = fmt.Sprintf("txn%d", i)
	}
	for qi := 0; qi < n; qi++ {
		lo := qi % 11
		hi := lo + (qi/11)%(11-lo)
		q := NewRead(fmt.Sprintf("q%d", qi), fmt.Sprintf("t%d", qi%tables), fields(lo, hi), 1, 1)
		if tables > 1 && qi%3 == 0 {
			q.Accesses = append(q.Accesses, TableAccess{Table: fmt.Sprintf("t%d", (qi+1)%tables), Attributes: fields(0, lo), Rows: 2})
		}
		txn := &inst.Workload.Transactions[qi%txns]
		txn.Queries = append(txn.Queries, q)
	}
	return inst
}

func BenchmarkValidateLargeInstance(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	inst := benchInstance(rng, 32, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := inst.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewModelLargeInstance(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	inst := benchInstance(rng, 32, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewModel(inst, DefaultModelOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateLargeInstance(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	inst := benchInstance(rng, 32, 100)
	m, err := NewModel(inst, DefaultModelOptions())
	if err != nil {
		b.Fatal(err)
	}
	p := randomPartitioning(rng, m, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := m.Evaluate(p); c.Objective < 0 {
			b.Fatal("negative objective")
		}
	}
}

// BenchmarkGroupAttributesLargeInstance groups a random instance, whose
// attributes merge, and an identity-shaped one shaped like a live YCSB
// epoch (one 11-attribute table, 2,048 queries), whose attributes do not:
// each once from the instance (GroupAttributes, which compiles its names
// first) and once from a model compiled beforehand (GroupModel, as a solve
// groups).
func BenchmarkGroupAttributesLargeInstance(b *testing.B) {
	for _, row := range []struct {
		name string
		inst *Instance
	}{
		{"merging", benchInstance(rand.New(rand.NewSource(4)), 32, 100)},
		{"identity", rangeInstance(1, 64, 2048)},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := GroupAttributes(row.inst); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(row.name+"-model", func(b *testing.B) {
			m, err := NewModel(row.inst, DefaultModelOptions())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchGrouping = GroupModel(m, nil)
			}
		})
	}
}

// benchGrouping keeps the benchmarked GroupModel calls from being optimised
// away.
var benchGrouping *Grouping

func BenchmarkPartitioningRepair(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	inst := benchInstance(rng, 32, 100)
	m, err := NewModel(inst, DefaultModelOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewPartitioning(m.NumTxns(), m.NumAttrs(), 4)
		for t := range p.TxnSite {
			p.TxnSite[t] = rng.Intn(4)
		}
		p.Repair(m)
	}
}
