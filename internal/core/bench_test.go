package core

import (
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

func BenchmarkNewModelLargeInstance(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	inst := benchInstance(rng, 32, 100)
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

func BenchmarkGroupAttributesLargeInstance(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	inst := benchInstance(rng, 32, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GroupAttributes(inst); err != nil {
			b.Fatal(err)
		}
	}
}

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
