package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// denseCoefficients is the reference for the sparse compile: the model's
// pairwise coefficients summed into dense attrs×txns matrices in query
// order, with the term lists read off them in attribute order.
type denseCoefficients struct {
	readLocal, transferOwn [][]float64
	phi                    [][]bool
	txnReadAttrs           [][]int
	txnTerms               [][]TermCoef
	attrTerms              [][]AttrTermCoef
}

func compileDense(m *Model) *denseCoefficients {
	nA, nT := len(m.attrs), len(m.txnNames)
	d := &denseCoefficients{
		readLocal:    make([][]float64, nA),
		transferOwn:  make([][]float64, nA),
		phi:          make([][]bool, nA),
		txnReadAttrs: make([][]int, nT),
		txnTerms:     make([][]TermCoef, nT),
		attrTerms:    make([][]AttrTermCoef, nA),
	}
	for a := 0; a < nA; a++ {
		d.readLocal[a] = make([]float64, nT)
		d.transferOwn[a] = make([]float64, nT)
		d.phi[a] = make([]bool, nT)
	}
	for _, q := range m.queries {
		for _, acc := range q.accesses {
			for _, a := range m.tableAttrs[acc.table] {
				if !q.write {
					d.readLocal[a][q.txn] += float64(m.attrs[a].Width) * q.freq * acc.rows
				}
			}
			for _, a := range acc.attrs {
				if q.write {
					d.transferOwn[a][q.txn] += float64(m.attrs[a].Width) * q.freq * acc.rows
				} else {
					d.phi[a][q.txn] = true
				}
			}
		}
	}
	for t := 0; t < nT; t++ {
		for a := 0; a < nA; a++ {
			if d.phi[a][t] {
				d.txnReadAttrs[t] = append(d.txnReadAttrs[t], a)
			}
			c1 := d.readLocal[a][t] - m.opts.Penalty*d.transferOwn[a][t]
			c3, xfer := d.readLocal[a][t], d.transferOwn[a][t]
			if c1 != 0 || c3 != 0 || xfer != 0 {
				d.txnTerms[t] = append(d.txnTerms[t], TermCoef{Attr: a, C1: c1, C3: c3, Xfer: xfer})
			}
			if c3 != 0 || xfer != 0 {
				d.attrTerms[a] = append(d.attrTerms[a], AttrTermCoef{Txn: t, C3: c3, Xfer: xfer})
			}
		}
	}
	return d
}

// writeHeavy turns every second query of inst into a write and gives every
// third one a second access, to another table, so transfer-own terms,
// read-and-write pairs and multi-access sums all occur.
func writeHeavy(inst *Instance) *Instance {
	tables := inst.Schema.Tables
	for ti := range inst.Workload.Transactions {
		qs := inst.Workload.Transactions[ti].Queries
		for qi := range qs {
			q := &qs[qi]
			if (ti+qi)%2 == 0 {
				q.Kind = Write
			}
			if (ti+qi)%3 != 0 || len(tables) < 2 {
				continue
			}
			for k, tbl := range tables {
				if tbl.Name == q.Accesses[0].Table {
					other := tables[(k+1)%len(tables)]
					q.Accesses = append(q.Accesses, TableAccess{
						Table: other.Name, Attributes: []string{other.Attributes[0].Name}, Rows: 3,
					})
					break
				}
			}
		}
	}
	inst.Name += "/write-heavy"
	return inst
}

// sameBits reports whether two floats are bitwise equal (so +0 and −0
// differ).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSparseCompileMatchesDense: on random instances under all three write
// accountings and two penalties, every C1, C3, TransferOwn and Phi lookup
// equals the dense reference bit for bit, and every TxnTerms, TxnReadAttrs
// and AttrTerms list equals the one read off the dense matrices.
func TestSparseCompileMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	instances := []*Instance{rangeInstance(3, 16, 200)}
	for i := 0; i < 6; i++ {
		inst := benchInstance(rng, 2+rng.Intn(8), 5+rng.Intn(40))
		if i%2 == 1 {
			inst = writeHeavy(inst)
		}
		instances = append(instances, inst)
	}
	for _, inst := range instances {
		for _, wa := range []WriteAccounting{WriteAll, WriteRelevant, WriteNone} {
			for _, pen := range []float64{0, DefaultPenalty} {
				m, err := NewModel(inst, ModelOptions{Penalty: pen, Lambda: 0.1, WriteAccounting: wa})
				if err != nil {
					t.Fatal(err)
				}
				d := compileDense(m)
				for a := 0; a < m.NumAttrs(); a++ {
					for tx := 0; tx < m.NumTxns(); tx++ {
						c1 := d.readLocal[a][tx] - pen*d.transferOwn[a][tx]
						if !sameBits(m.C1(a, tx), c1) || !sameBits(m.C3(a, tx), d.readLocal[a][tx]) ||
							!sameBits(m.TransferOwn(a, tx), d.transferOwn[a][tx]) || m.Phi(a, tx) != d.phi[a][tx] {
							t.Fatalf("%s %s p=%g: (a=%d, t=%d) C1/C3/TransferOwn/Phi = %v/%v/%v/%v, dense %v/%v/%v/%v",
								inst.Name, wa, pen, a, tx, m.C1(a, tx), m.C3(a, tx), m.TransferOwn(a, tx), m.Phi(a, tx),
								c1, d.readLocal[a][tx], d.transferOwn[a][tx], d.phi[a][tx])
						}
					}
					if !reflect.DeepEqual(m.AttrTerms(a), d.attrTerms[a]) {
						t.Fatalf("%s %s p=%g: AttrTerms(%d) = %v, dense %v", inst.Name, wa, pen, a, m.AttrTerms(a), d.attrTerms[a])
					}
				}
				for tx := 0; tx < m.NumTxns(); tx++ {
					if !reflect.DeepEqual(m.TxnTerms(tx), d.txnTerms[tx]) {
						t.Fatalf("%s %s p=%g: TxnTerms(%d) = %v, dense %v", inst.Name, wa, pen, tx, m.TxnTerms(tx), d.txnTerms[tx])
					}
					if !reflect.DeepEqual(m.TxnReadAttrs(tx), d.txnReadAttrs[tx]) {
						t.Fatalf("%s %s p=%g: TxnReadAttrs(%d) = %v, dense %v", inst.Name, wa, pen, tx, m.TxnReadAttrs(tx), d.txnReadAttrs[tx])
					}
				}
			}
		}
	}
}
