package core

import (
	"math"
	"testing"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestModelOptionValidation(t *testing.T) {
	inst := testInstance()
	bad := []ModelOptions{
		{Penalty: -1, Lambda: 0.1},
		{Penalty: 8, Lambda: -0.1},
		{Penalty: 8, Lambda: 1.5},
		{Penalty: 8, Lambda: 0.1, LatencyPenalty: -2},
		{Penalty: 8, Lambda: 0.1, WriteAccounting: WriteAccounting(9)},
		{Penalty: math.Inf(1), Lambda: 0.1},
		{Penalty: math.NaN(), Lambda: 0.1},
		{Penalty: 8, Lambda: math.NaN()},
		{Penalty: 8, Lambda: 0.1, LatencyPenalty: math.Inf(1)},
		{Penalty: 8, Lambda: 0.1, LatencyPenalty: math.NaN()},
	}
	for i, o := range bad {
		if _, err := NewModel(inst, o); err == nil {
			t.Errorf("case %d: invalid options %+v accepted", i, o)
		}
	}
	if _, err := NewModel(inst, DefaultModelOptions()); err != nil {
		t.Fatalf("default options rejected: %v", err)
	}
}

func TestDefaultModelOptions(t *testing.T) {
	o := DefaultModelOptions()
	if o.Penalty != 8 || o.Lambda != 0.1 || o.WriteAccounting != WriteAll || o.LatencyPenalty != 0 {
		t.Fatalf("unexpected defaults: %+v", o)
	}
}

func TestModelInvalidInstanceRejected(t *testing.T) {
	inst := testInstance()
	inst.Workload.Transactions[0].Queries[0].Accesses[0].Table = "missing"
	if _, err := NewModel(inst, DefaultModelOptions()); err == nil {
		t.Fatal("model accepted instance referencing a missing table")
	}
}

func TestModelDimensions(t *testing.T) {
	m := testModel(t)
	if m.NumAttrs() != 5 || m.NumTxns() != 2 || m.NumTables() != 2 || m.NumQueries() != 3 {
		t.Fatalf("dimensions: |A|=%d |T|=%d tables=%d queries=%d",
			m.NumAttrs(), m.NumTxns(), m.NumTables(), m.NumQueries())
	}
	if m.TxnName(0) != "T1" || m.TxnName(1) != "T2" {
		t.Fatalf("transaction names: %q, %q", m.TxnName(0), m.TxnName(1))
	}
	if idx, ok := m.TxnIndex("T2"); !ok || idx != 1 {
		t.Fatalf("TxnIndex(T2) = %d, %v", idx, ok)
	}
	if _, ok := m.TxnIndex("nope"); ok {
		t.Fatal("TxnIndex found a missing transaction")
	}
	if m.TableName(0) != "R" || m.TableName(1) != "S" {
		t.Fatalf("table names: %q %q", m.TableName(0), m.TableName(1))
	}
	if got := len(m.TableAttrs(0)); got != 3 {
		t.Fatalf("TableAttrs(R) has %d attrs", got)
	}
	a1 := attrID(t, m, "R", "a1")
	if info := m.Attr(a1); info.Width != 4 || info.Qualified.String() != "R.a1" {
		t.Fatalf("Attr(a1) = %+v", info)
	}
	if len(m.Attrs()) != 5 {
		t.Fatalf("Attrs() length %d", len(m.Attrs()))
	}
	if _, ok := m.AttrID(QualifiedAttr{Table: "R", Attr: "zz"}); ok {
		t.Fatal("AttrID found a missing attribute")
	}
}

// TestModelCoefficients checks c1..c4 against hand computation for the
// fixture (p = 2):
//
//	W(a,q1) = w_a·1·1 for R attrs, W(a,q2) = w_a·2·1 for S attrs,
//	W(a,q3) = w_a·1·10 for S attrs.
func TestModelCoefficients(t *testing.T) {
	m := testModel(t)
	a1 := attrID(t, m, "R", "a1")
	a2 := attrID(t, m, "R", "a2")
	a3 := attrID(t, m, "R", "a3")
	b1 := attrID(t, m, "S", "b1")
	b2 := attrID(t, m, "S", "b2")
	const t1, t2 = 0, 1

	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"c1(a1,T1)", m.C1(a1, t1), 4},
		{"c1(a2,T1)", m.C1(a2, t1), 8},
		{"c1(a3,T1)", m.C1(a3, t1), 2},
		{"c1(b1,T1)", m.C1(b1, t1), -16}, // -p·W(b1,q2) = -2·8
		{"c1(b2,T1)", m.C1(b2, t1), 0},
		{"c1(b1,T2)", m.C1(b1, t2), 40},
		{"c1(b2,T2)", m.C1(b2, t2), 160},
		{"c2(a1)", m.C2(a1), 0},
		{"c2(b1)", m.C2(b1), 24}, // 8 + 2·8
		{"c2(b2)", m.C2(b2), 32},
		{"c3(a3,T1)", m.C3(a3, t1), 2},
		{"c3(b1,T2)", m.C3(b1, t2), 40},
		{"c4(b1)", m.C4(b1), 8},
		{"c4(b2)", m.C4(b2), 32},
		{"c4(a1)", m.C4(a1), 0},
		{"transferTotal(b1)", m.TransferTotal(b1), 8},
		{"transferOwn(b1,T1)", m.TransferOwn(b1, t1), 8},
		{"transferOwn(b1,T2)", m.TransferOwn(b1, t2), 0},
	}
	for _, c := range checks {
		if !almostEqual(c.got, c.want) {
			t.Errorf("%s = %g, want %g", c.name, c.got, c.want)
		}
	}
}

func TestModelPhi(t *testing.T) {
	m := testModel(t)
	a1 := attrID(t, m, "R", "a1")
	a3 := attrID(t, m, "R", "a3")
	b1 := attrID(t, m, "S", "b1")
	const t1, t2 = 0, 1
	if !m.Phi(a1, t1) {
		t.Error("phi(a1,T1) should be true (read by q1)")
	}
	if m.Phi(a3, t1) {
		t.Error("phi(a3,T1) should be false (a3 never referenced)")
	}
	if m.Phi(b1, t1) {
		t.Error("phi(b1,T1) should be false (b1 only written by T1)")
	}
	if !m.Phi(b1, t2) {
		t.Error("phi(b1,T2) should be true (read by q3)")
	}
	if got := m.TxnReadAttrs(t1); len(got) != 2 {
		t.Errorf("TxnReadAttrs(T1) = %v, want two attributes", got)
	}
	if got := m.TxnReadAttrs(t2); len(got) != 2 {
		t.Errorf("TxnReadAttrs(T2) = %v, want two attributes", got)
	}
}

func TestModelTxnTerms(t *testing.T) {
	m := testModel(t)
	// T1 touches a1,a2,a3 (reads via β) and b1 (write transfer): 4 terms.
	if got := len(m.TxnTerms(0)); got != 4 {
		t.Fatalf("TxnTerms(T1) has %d entries, want 4", got)
	}
	// T2 touches b1,b2.
	if got := len(m.TxnTerms(1)); got != 2 {
		t.Fatalf("TxnTerms(T2) has %d entries, want 2", got)
	}
	// Every term must agree with the dense accessors.
	for txn := 0; txn < m.NumTxns(); txn++ {
		for _, tc := range m.TxnTerms(txn) {
			if !almostEqual(tc.C1, m.C1(tc.Attr, txn)) || !almostEqual(tc.C3, m.C3(tc.Attr, txn)) {
				t.Errorf("term (%d,%d) inconsistent with accessors", tc.Attr, txn)
			}
		}
	}
}

func TestWriteAccountingString(t *testing.T) {
	if WriteAll.String() != "all" || WriteRelevant.String() != "relevant" || WriteNone.String() != "none" {
		t.Fatal("unexpected WriteAccounting strings")
	}
	if s := WriteAccounting(42).String(); s == "" {
		t.Fatal("invalid accounting mode produced empty string")
	}
}

func TestWriteNoneDropsC2AndC4(t *testing.T) {
	inst := testInstance()
	m, err := NewModel(inst, ModelOptions{Penalty: 2, Lambda: 0.1, WriteAccounting: WriteNone})
	if err != nil {
		t.Fatal(err)
	}
	b1 := attrID(t, m, "S", "b1")
	b2 := attrID(t, m, "S", "b2")
	if got := m.C2(b1); !almostEqual(got, 16) { // only p·transfer remains
		t.Errorf("C2(b1) = %g, want 16", got)
	}
	if got := m.C2(b2); !almostEqual(got, 0) {
		t.Errorf("C2(b2) = %g, want 0", got)
	}
	if m.C4(b1) != 0 || m.C4(b2) != 0 {
		t.Error("C4 should be zero under WriteNone")
	}
}
